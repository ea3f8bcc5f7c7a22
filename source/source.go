// Package source defines the storage contract of HypDB: the narrow
// interface the analysis engine needs from a backing store in order to
// detect, explain and remove bias in OLAP queries.
//
// The paper positions HypDB as middleware on top of an OLAP DBMS — all of
// its sufficient statistics (contingency tables, group-by counts,
// conditional mutual information) are computable from aggregate COUNT
// queries against the database. Relation captures exactly that: a schema,
// a row count, per-attribute dictionaries, and dictionary-coded group-by
// Counts under a predicate. Everything else in the engine — entropy
// estimation, the MIT permutation test over contingency tables, covariate
// discovery, bias detection, explanation ranking and query rewriting — is
// derived from those counts.
//
// Two backends ship with HypDB:
//
//   - source/mem wraps the in-memory columnar dataset.Table (zero behavior
//     change relative to the original table-bound pipeline), and
//   - source/sqldb speaks to any database/sql driver, pushing
//     SELECT ..., COUNT(*) ... GROUP BY aggregation down to the database,
//     one query per count call.
//
// A few analysis paths genuinely need raw rows (the naive shuffle
// permutation test, key-attribute detection by subsampling). Backends that
// can produce rows implement the optional Materializer capability; the
// Materialize helper returns hyperr.ErrNeedsMaterialization (re-exported as
// hypdb.ErrNeedsMaterialization) for counts-only relations, so row-level
// paths fail loudly instead of silently degrading.
package source

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
)

// Predicate filters rows: the WHERE condition of the paper's queries. It is
// the same predicate type the public hypdb package exposes; backends either
// evaluate it in memory (mem) or render it to SQL via its SQL() method
// (sqldb).
type Predicate = dataset.Predicate

// Key is a dictionary-coded composite group-by key: 4 little-endian bytes
// per attribute, in the attribute order of the Counts call that produced
// it. Use Key.Codes, Key.Field and Key.Slice to take it apart and
// dataset.EncodeKey to build one.
type Key = dataset.GroupKey

// Relation is the data contract of the HypDB engine: a named relation of
// categorical attributes that can answer dictionary-coded group-by counts.
//
// Dictionaries are per-handle and immutable: Labels(attr) returns the
// code→label mapping, and every code appearing in a Counts result indexes
// into that same slice for the lifetime of the handle. Restrict returns a
// new relation over the selected subpopulation with fresh (compacted)
// dictionaries — exactly how the engine scopes an analysis to a query's
// WHERE view.
//
// Implementations must be safe for concurrent use: the engine issues
// overlapping Counts calls from worker pools.
type Relation interface {
	// Name is the display name of the relation (used when rendering SQL).
	Name() string

	// Backend returns a stable identity string for this relation's backing
	// store and restriction. Two relations with different Backend() values
	// must never share cached statistics; session caches incorporate it
	// into their keys. The text before its first colon names the backend's
	// kind (see RestrictsInRootOrder).
	Backend() string

	// Attributes returns the column names in schema order.
	Attributes() []string

	// HasAttribute reports whether the named attribute exists.
	HasAttribute(name string) bool

	// NumRows returns the number of rows (the paper's n).
	NumRows(ctx context.Context) (int, error)

	// Labels returns the dictionary of attr: a slice mapping each code to
	// its string label. Callers must not mutate the returned slice. The
	// dictionary covers the relation's active domain; its length is the
	// attribute's cardinality.
	Labels(ctx context.Context, attr string) ([]string, error)

	// Counts returns the frequency of each composite value of attrs among
	// the rows matching where (all rows when where is nil), keyed by the
	// dictionary codes of the attributes in call order. An empty attrs
	// yields a single empty key holding the matching-row count. Callers
	// must not mutate the returned map: backends and caching layers are
	// free to hand out one shared memoized result.
	//
	// The engine reads counts through Tabulate and the storage layers
	// through Dense and TabulateWhere, which fold this map into a
	// dataset.DenseCounts for backends that implement only Counts.
	Counts(ctx context.Context, attrs []string, where Predicate) (map[Key]int, error)

	// Restrict returns σ_where(R): a new relation over the matching rows
	// with compacted dictionaries. A nil predicate returns the relation
	// itself.
	Restrict(ctx context.Context, where Predicate) (Relation, error)
}

// DenseCounter is the optional dense-counts capability: backends that can
// tabulate (or convert) group-by counts into the flat mixed-radix
// dataset.DenseCounts form implement it, letting the engine skip the sparse
// map representation entirely. Implementations return (nil, nil) when the
// cell space ∏ Card(attr) exceeds budget (≤ 0 meaning
// dataset.DefaultCellBudget) and fetch nothing, so the storage layers
// (count-cache priming, delta upgrades) can skip an over-budget view
// cheaply. The engine never sees the decline: it reads
// through Tabulate.
type DenseCounter interface {
	DenseCounts(ctx context.Context, attrs []string, where Predicate, budget int) (*dataset.DenseCounts, error)
}

// Dense returns the dense tabulation of rel's group-by counts over attrs
// under where, or (nil, nil) without a backend round trip when the cell
// space exceeds budget (≤ 0 meaning dataset.DefaultCellBudget). Backends
// implementing DenseCounter answer directly; for the rest the Counts map
// becomes the sparse form over the per-attribute dictionaries, which checks
// every key, and its cells are added into a dense view — still one backend
// round trip. It is the storage layers' budgeted read; the engine reads
// through Tabulate.
func Dense(ctx context.Context, rel Relation, attrs []string, where Predicate, budget int) (*dataset.DenseCounts, error) {
	if dc, ok := rel.(DenseCounter); ok {
		return dc.DenseCounts(ctx, attrs, where, budget)
	}
	cards, err := cardsOf(ctx, rel, attrs)
	if err != nil {
		return nil, err
	}
	rows, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	if _, ok := dataset.DenseSize(cards, dataset.EffectiveBudget(budget, rows)); !ok {
		return nil, nil
	}
	counts, err := rel.Counts(ctx, attrs, where)
	if err != nil {
		return nil, err
	}
	sparse, err := dataset.NewSparseCounts(attrs, cards, counts)
	if err != nil {
		return nil, fmt.Errorf("source: relation %q: %v", rel.Name(), err)
	}
	dc, err := dataset.NewDenseCounts(attrs, cards)
	if err != nil {
		return nil, err
	}
	if err := dc.AddCells(sparse); err != nil {
		return nil, err
	}
	return dc, nil
}

// Tabulate returns rel's unpredicated group-by counts over attrs and never
// declines: within the default cell budget it is the dense view Dense
// returns; above it, the Counts result in the sparse form of
// dataset.DenseCounts — one backend round trip either way. It is the
// engine's only count read, and the view's accessors (CellCounts, Marginal,
// GroupBy, ...) answer alike for both forms, so no consumer branches on the
// representation.
func Tabulate(ctx context.Context, rel Relation, attrs []string) (*dataset.DenseCounts, error) {
	return TabulateWhere(ctx, rel, attrs, nil)
}

// TabulateWhere is Tabulate over the rows matching where (all rows when
// where is nil). The storage layers that must answer every request — the
// sharded merge, the counts endpoint — read through it.
func TabulateWhere(ctx context.Context, rel Relation, attrs []string, where Predicate) (*dataset.DenseCounts, error) {
	if dc, err := Dense(ctx, rel, attrs, where, 0); dc != nil || err != nil {
		return dc, err
	}
	cards, err := cardsOf(ctx, rel, attrs)
	if err != nil {
		return nil, err
	}
	counts, err := rel.Counts(ctx, attrs, where)
	if err != nil {
		return nil, err
	}
	dc, err := dataset.NewSparseCounts(attrs, cards, counts)
	if err != nil {
		return nil, fmt.Errorf("source: relation %q: %v", rel.Name(), err)
	}
	return dc, nil
}

// RestrictsInRootOrder reports whether rel's backend cuts restricted
// dictionaries from the root's: for every handle r that Restrict derives
// from a root, nested restrictions included, r.Labels(a) is the root's
// labels of a whose count under r's predicate is non-zero, kept in root
// code order, and nil when there are none. A caching layer that holds the
// root's counts can then derive a restricted handle's dictionaries, and the
// codes they give its counts, without asking the backend.
//
// A backend makes the promise for its kind, the text of its Backend()
// identities before the first colon, with DeclareRootOrder. Relations with
// equal identities hold the same data (see Relation.Backend), so a wrapper
// that forwards the identity, as one must for session caches to stay
// keyed, keeps the promise without knowing of it.
func RestrictsInRootOrder(rel Relation) bool {
	kind, _, _ := strings.Cut(rel.Backend(), ":")
	_, ok := rootOrderKinds.Load(kind)
	return ok
}

// DeclareRootOrder records that every relation whose Backend() identity
// has kind before its first colon keeps the RestrictsInRootOrder promise.
// Backends call it from an init function.
func DeclareRootOrder(kind string) { rootOrderKinds.Store(kind, struct{}{}) }

var rootOrderKinds sync.Map

// cardsOf returns the cardinality of each of attrs.
func cardsOf(ctx context.Context, rel Relation, attrs []string) ([]int, error) {
	cards := make([]int, len(attrs))
	for i, a := range attrs {
		card, err := Card(ctx, rel, a)
		if err != nil {
			return nil, err
		}
		cards[i] = card
	}
	return cards, nil
}

// Materializer is the optional row-level capability: backends that can
// produce the underlying rows implement it, enabling the analysis path that
// genuinely needs raw data, the naive shuffle permutation test. The key
// detector does not use it: it samples rows only where a backend already
// holds them in memory, and each attribute's histogram elsewhere.
// Materialize may be expensive for remote backends; the engine calls it
// only on that path.
type Materializer interface {
	// Materialize returns the relation's rows as an in-memory table whose
	// column dictionaries agree with the relation's Labels.
	Materialize(ctx context.Context) (*dataset.Table, error)
}

// Closer is the optional teardown capability: backends holding external
// resources (database connections, prepared statements) implement it.
// Close must be safe to call more than once.
type Closer interface {
	Close() error
}

// Materialize returns rel's rows as an in-memory table when the backend
// supports row-level access, and an error wrapping
// hyperr.ErrNeedsMaterialization otherwise.
func Materialize(ctx context.Context, rel Relation) (*dataset.Table, error) {
	if m, ok := rel.(Materializer); ok {
		return m.Materialize(ctx)
	}
	return nil, fmt.Errorf("source: relation %q (backend %s) is counts-only: %w",
		rel.Name(), rel.Backend(), hyperr.ErrNeedsMaterialization)
}

// Card returns the cardinality (dictionary size) of attr. Backends that
// can count distinct values without materializing the dictionary expose
// the optional Cardinality capability, which is preferred.
func Card(ctx context.Context, rel Relation, attr string) (int, error) {
	if c, ok := rel.(interface {
		Cardinality(ctx context.Context, attr string) (int, error)
	}); ok {
		return c.Cardinality(ctx, attr)
	}
	labels, err := rel.Labels(ctx, attr)
	if err != nil {
		return 0, err
	}
	return len(labels), nil
}

// CheckAttrs verifies that every named attribute exists on rel, wrapping
// hyperr.ErrUnknownAttribute for the first missing one.
func CheckAttrs(rel Relation, attrs ...string) error {
	for _, a := range attrs {
		if !rel.HasAttribute(a) {
			return fmt.Errorf("source: relation %q has no attribute %q: %w", rel.Name(), a, hyperr.ErrUnknownAttribute)
		}
	}
	return nil
}

// countsOnly strips the Materializer capability off a relation, leaving
// the pure counts contract. Close is forwarded so resource-holding
// backends are still released through the wrapper, and DenseCounts is
// forwarded so wrapping a dense-capable backend does not silently demote
// source.Dense to the generic sparse-fold path.
type countsOnly struct {
	Relation
}

// CountsOnly returns a view of rel that hides row-level access: paths that
// need raw rows fail with ErrNeedsMaterialization. It is how tests — and
// deployments that must never pull raw rows out of a store — enforce the
// aggregate-only contract. The Closer, DenseCounter and Cardinality
// capabilities are preserved, and the backend identity with them the
// RestrictsInRootOrder promise: counts-only means no rows, not slow counts.
func CountsOnly(rel Relation) Relation {
	return countsOnly{Relation: rel}
}

// Close implements Closer by forwarding to the wrapped relation (a no-op
// when the backend holds no resources).
func (c countsOnly) Close() error {
	if cl, ok := c.Relation.(Closer); ok {
		return cl.Close()
	}
	return nil
}

// DenseCounts implements DenseCounter by probing the wrapped relation,
// falling back to folding the sparse Counts result when the backend has no
// dense path of its own.
func (c countsOnly) DenseCounts(ctx context.Context, attrs []string, where Predicate, budget int) (*dataset.DenseCounts, error) {
	return Dense(ctx, c.Relation, attrs, where, budget)
}

// Cardinality forwards the optional distinct-count capability.
func (c countsOnly) Cardinality(ctx context.Context, attr string) (int, error) {
	return Card(ctx, c.Relation, attr)
}

// Restrict keeps the counts-only guarantee across restriction.
func (c countsOnly) Restrict(ctx context.Context, where Predicate) (Relation, error) {
	r, err := c.Relation.Restrict(ctx, where)
	if err != nil {
		return nil, err
	}
	if r == c.Relation {
		return c, nil
	}
	return countsOnly{Relation: r}, nil
}

// ---------------------------------------------------------------------------
// Streaming ingestion and versioned snapshots

// AppendResult describes one successful Append: how many rows landed, the
// relation's new totals, and a counts view over just the appended rows so
// caching layers can patch primed statistics instead of discarding them.
type AppendResult struct {
	// Appended is the number of rows this call added.
	Appended int
	// NumRows is the relation's total row count after the append.
	NumRows int
	// Version is the relation's snapshot version after the append.
	Version uint64
	// Delta is a read-only relation over exactly the appended rows, coded
	// in the parent relation's (post-append) global dictionaries — its
	// Counts/DenseCounts are additive deltas for any cached view of the
	// previous version.
	Delta Relation
}

// Appender is the optional streaming-ingestion capability: relations that
// can grow by whole rows implement it. Append must be safe for concurrent
// use with readers; each call produces a new snapshot version.
type Appender interface {
	Append(ctx context.Context, rows [][]string) (*AppendResult, error)
}

// Versioned is the optional snapshot capability of mutable relations.
// Readers that must not observe concurrent appends take a Snapshot — an
// immutable view of one version — and work against it; caching layers tag
// entries with the version they were computed at so no analysis ever mixes
// epochs.
type Versioned interface {
	// SnapshotVersion returns the current version. It starts at 1 and
	// increases with every successful Append.
	SnapshotVersion() uint64
	// Snapshot returns an immutable view of the current version together
	// with that version number. The view's Backend identity incorporates
	// the version, so statistics cached against it can never be shared
	// across epochs.
	Snapshot() (Relation, uint64)
}
