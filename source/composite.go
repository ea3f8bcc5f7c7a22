package source

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hypdb/internal/dataset"
)

// composite exposes a base relation plus one virtual attribute holding the
// joint (composite) value of a set of base attributes. The engine's balance
// test (Def 3.1) tests the treatment against the joint value of a variable
// set V; this wrapper lets that test run through the ordinary Tester
// machinery on any backend, entirely from counts.
type composite struct {
	base  Relation
	name  string
	parts []string

	mu     sync.Mutex
	keys   []Key    // composite dictionary, ascending: code -> parts key (in parts order); nil until built
	labels []string // code -> synthetic label
}

// WithComposite returns rel extended with a virtual attribute named name
// whose value is the joint value of parts. Composite codes rank the parts'
// combinations over the unrestricted relation in ascending encoded-key
// order, so they are deterministic per handle. The dictionary comes from
// the first unpredicated tabulation holding the composite, or from one
// tabulation of parts when a dictionary is needed before that. The wrapper
// is counts-only (it does not forward Materializer).
func WithComposite(rel Relation, name string, parts []string) (Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("source: composite attribute %q needs at least one constituent", name)
	}
	if rel.HasAttribute(name) {
		return nil, fmt.Errorf("source: relation %q already has an attribute %q", rel.Name(), name)
	}
	if err := CheckAttrs(rel, parts...); err != nil {
		return nil, err
	}
	return &composite{base: rel, name: name, parts: append([]string(nil), parts...)}, nil
}

func (c *composite) Name() string { return c.base.Name() }

func (c *composite) Backend() string {
	return c.base.Backend() + "|composite:" + c.name + "(" + strings.Join(c.parts, ",") + ")"
}

// Attributes clips the base's list: appending into its spare capacity
// would write into a backing array that other callers share.
func (c *composite) Attributes() []string { return append(slices.Clip(c.base.Attributes()), c.name) }

func (c *composite) HasAttribute(name string) bool {
	return name == c.name || c.base.HasAttribute(name)
}

func (c *composite) NumRows(ctx context.Context) (int, error) { return c.base.NumRows(ctx) }

// install builds the dictionary from groups — an unpredicated tabulation
// grouped by parts, in the ascending key order of GroupBy — unless one
// exists, and returns the dictionary in force.
func (c *composite) install(groups []dataset.CellGroup) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys == nil {
		c.keys = make([]Key, len(groups))
		c.labels = make([]string, len(groups))
		for i, g := range groups {
			c.keys[i] = g.Key
			c.labels[i] = "v" + strconv.Itoa(i)
		}
	}
	return c.keys
}

// dictionary returns the composite dictionary, tabulating parts on the base
// when no unpredicated request has built it yet.
func (c *composite) dictionary(ctx context.Context) ([]Key, error) {
	c.mu.Lock()
	keys := c.keys
	c.mu.Unlock()
	if keys != nil {
		return keys, nil
	}
	view, err := Tabulate(ctx, c.base, c.parts)
	if err != nil {
		return nil, err
	}
	return c.install(view.GroupBy(len(c.parts))), nil
}

func (c *composite) Labels(ctx context.Context, attr string) ([]string, error) {
	if attr != c.name {
		return c.base.Labels(ctx, attr)
	}
	if _, err := c.dictionary(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labels, nil
}

// position returns the index of the composite in attrs, or -1.
func (c *composite) position(attrs []string) (int, error) {
	pos := -1
	for i, a := range attrs {
		if a == c.name {
			if pos >= 0 {
				return 0, fmt.Errorf("source: composite attribute %q requested twice", c.name)
			}
			pos = i
		}
	}
	return pos, nil
}

// folded is a request holding the composite, read off one tabulation of
// parts ++ rest (rest being the request's other attributes): each group of
// the parts' codes is one composite code.
type folded struct {
	cards  []int // the request's cardinalities
	pos    int   // the composite's position in the request
	groups []dataset.CellGroup
	codes  []int32 // composite code of each group
}

// fold tabulates parts ++ rest on the base under where and codes its groups
// of the parts' codes by binary search in the dictionary. An unpredicated
// tabulation builds a cold dictionary and must hold every combination in
// it, so its group i is code i.
func (c *composite) fold(ctx context.Context, attrs []string, pos int, where Predicate) (*folded, error) {
	np := len(c.parts)
	expanded := make([]string, 0, np+len(attrs)-1)
	expanded = append(append(append(expanded, c.parts...), attrs[:pos]...), attrs[pos+1:]...)
	view, err := TabulateWhere(ctx, c.base, expanded, where)
	if err != nil {
		return nil, err
	}
	groups := view.GroupBy(np)
	var keys []Key
	if where == nil {
		keys = c.install(groups)
	} else if keys, err = c.dictionary(ctx); err != nil {
		return nil, err
	}
	if where == nil && len(groups) != len(keys) {
		return nil, c.mismatch()
	}
	codes := make([]int32, len(groups))
	for i, g := range groups {
		code, ok := slices.BinarySearch(keys, g.Key)
		if !ok {
			return nil, c.mismatch()
		}
		codes[i] = int32(code)
	}
	cards := slices.Insert(slices.Clone(view.Cards[np:]), pos, len(keys))
	return &folded{cards: cards, pos: pos, groups: groups, codes: codes}, nil
}

// mismatch reports counts whose constituent combinations differ from the
// dictionary: impossible for a consistent backend, as the dictionary covers
// exactly the unrestricted relation.
func (c *composite) mismatch() error {
	return fmt.Errorf("source: composite %q: constituent combinations in counts differ from its dictionary", c.name)
}

// each calls fn with the request-order codes and the count of every
// occupied cell. fn must not retain codes.
func (f *folded) each(fn func(codes []int32, n int)) {
	rest := len(f.cards) - 1
	cell := make([]int32, len(f.cards))
	for gi, g := range f.groups {
		cell[f.pos] = f.codes[gi]
		for j, n := range g.Counts {
			codes := g.Codes[j*rest : (j+1)*rest]
			copy(cell[:f.pos], codes[:f.pos])
			copy(cell[f.pos+1:], codes[f.pos:])
			fn(cell, n)
		}
	}
}

func (c *composite) Counts(ctx context.Context, attrs []string, where Predicate) (map[Key]int, error) {
	pos, err := c.position(attrs)
	if err != nil {
		return nil, err
	}
	if pos < 0 {
		return c.base.Counts(ctx, attrs, where)
	}
	f, err := c.fold(ctx, attrs, pos, where)
	if err != nil {
		return nil, err
	}
	out := make(map[Key]int)
	f.each(func(codes []int32, n int) { out[dataset.EncodeKey(codes...)] = n })
	return out, nil
}

// DenseCounts implements DenseCounter. A request holding the composite is
// written straight into the cells of one tabulation of its constituents;
// once the dictionary is known, an over-budget request is declined before
// anything is fetched.
func (c *composite) DenseCounts(ctx context.Context, attrs []string, where Predicate, budget int) (*dataset.DenseCounts, error) {
	pos, err := c.position(attrs)
	if err != nil {
		return nil, err
	}
	if pos < 0 {
		return Dense(ctx, c.base, attrs, where, budget)
	}
	rows, err := c.base.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	budget = dataset.EffectiveBudget(budget, rows)
	c.mu.Lock()
	built := c.keys != nil
	c.mu.Unlock()
	if built {
		cards, err := cardsOf(ctx, c, attrs)
		if err != nil {
			return nil, err
		}
		if _, ok := dataset.DenseSize(cards, budget); !ok {
			return nil, nil
		}
	}
	f, err := c.fold(ctx, attrs, pos, where)
	if err != nil {
		return nil, err
	}
	if _, ok := dataset.DenseSize(f.cards, budget); !ok {
		return nil, nil
	}
	dc, err := dataset.NewDenseCounts(attrs, f.cards)
	if err != nil {
		return nil, err
	}
	f.each(func(codes []int32, n int) {
		cell, stride := 0, 1
		for i, code := range codes {
			cell += stride * int(code)
			stride *= f.cards[i]
		}
		dc.Cells[cell] = n
		dc.Total += n
	})
	return dc, nil
}

func (c *composite) Restrict(ctx context.Context, where Predicate) (Relation, error) {
	if where == nil {
		return c, nil
	}
	base, err := c.base.Restrict(ctx, where)
	if err != nil {
		return nil, err
	}
	return WithComposite(base, c.name, c.parts)
}
