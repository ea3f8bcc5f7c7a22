// Package mem implements the in-memory storage backend of HypDB: a
// source.Relation over the columnar, dictionary-encoded dataset.Table.
//
// It is the zero-behavior-change backend: counts are tabulated from the
// table's code vectors with the exact semantics the engine used when it was
// bound to *dataset.Table directly, Restrict compacts dictionaries the same
// way Table.Select always did, and Materialize returns the backing table
// itself — so row-level analysis paths (shuffle tests, subsample key
// detection) run at full fidelity.
package mem

import (
	"context"
	"fmt"

	"hypdb/internal/dataset"
	"hypdb/source"
)

// Relation adapts a *dataset.Table to the source.Relation contract.
type Relation struct {
	t       *dataset.Table
	name    string
	backend string
}

// New wraps a table under the default display name "D". The table must not
// be mutated afterwards.
func New(t *dataset.Table) *Relation { return NewNamed(t, "D") }

// NewNamed wraps a table under an explicit display name.
func NewNamed(t *dataset.Table, name string) *Relation {
	return &Relation{t: t, name: name, backend: fmt.Sprintf("mem:%p", t)}
}

// Table returns the backing table. Treat it as read-only.
func (r *Relation) Table() *dataset.Table { return r.t }

// Name implements source.Relation.
func (r *Relation) Name() string { return r.name }

// Backend implements source.Relation. The identity is the backing table's
// address: distinct tables (including restrictions, which copy) never
// collide, while two handles over one table interchangeably share it.
func (r *Relation) Backend() string { return r.backend }

// Attributes implements source.Relation.
func (r *Relation) Attributes() []string { return r.t.Columns() }

// HasAttribute implements source.Relation.
func (r *Relation) HasAttribute(name string) bool { return r.t.HasColumn(name) }

// NumRows implements source.Relation.
func (r *Relation) NumRows(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return r.t.NumRows(), nil
}

// Labels implements source.Relation.
func (r *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := r.t.Column(attr)
	if err != nil {
		return nil, err
	}
	return c.Labels(), nil
}

// Counts implements source.Relation.
func (r *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dc, err := r.t.Tabulate(where, 0, attrs...)
	if err != nil {
		return nil, err
	}
	return dc.Map(), nil
}

// DenseCounts implements source.DenseCounter: the counts are tabulated
// straight into the flat mixed-radix form by the dataset kernel — zero
// per-row allocations, parallel chunked scan on large tables. It declines
// (nil) a view whose cell space does not fit the row-tightened budget.
func (r *Relation) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ok, err := r.t.DenseFits(budget, attrs...); !ok || err != nil {
		return nil, err
	}
	return r.t.Tabulate(where, budget, attrs...)
}

// Restrict implements source.Relation: it eagerly selects the matching rows
// into a fresh table with compacted dictionaries.
func (r *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return r, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	view, err := r.t.Select(where)
	if err != nil {
		return nil, err
	}
	return NewNamed(view, r.name), nil
}

// Materialize implements source.Materializer.
func (r *Relation) Materialize(ctx context.Context) (*dataset.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.t, nil
}

var (
	_ source.Relation     = (*Relation)(nil)
	_ source.Materializer = (*Relation)(nil)
	_ source.DenseCounter = (*Relation)(nil)
)
