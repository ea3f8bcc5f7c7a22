// Package countcache implements HypDB's marginalization-serving count
// cache: a source.Relation wrapper that memoizes dense (mixed-radix)
// group-by views and answers any Counts request whose attribute set is
// covered by a cached view by marginalizing it in O(occupied cells) —
// never going back to the backend. Sec 6 of the paper observes that
// "contingency tables with their marginals are essentially OLAP
// data-cubes"; this package is that observation promoted into the storage
// layer, shared by every consumer of counts (entropy providers,
// covariate-discovery scoring, the MIT group tables, query rewriting)
// instead of being rebuilt privately by each of them.
//
// Prime fetches the finest view over an attribute closure in one backend
// round trip (one GROUP BY query on SQL backends, one columnar scan in
// memory); after priming, the subset enumeration of a covariate-discovery
// hill climb runs entirely against the cache. Views are bounded by a cell
// budget per view and a total-cell bound per handle; requests above the
// budget pass through to the backend unchanged. A restricted view's misses
// are sliced out of a cached unrestricted view that covers them and the
// predicate's attributes, without the backend, and over a backend that
// restricts in root order so are its dictionaries (see Relation.Restrict).
package countcache

import (
	"context"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// Stats reports one handle's cache traffic.
type Stats struct {
	// Fetches counts backend round trips for dense views; Hits counts
	// requests answered from a cached view of exactly the requested
	// attribute set (at the requested version); Derived counts requests
	// answered by marginalizing a cached superset view, a restricted
	// view's slices of its tree top's views included.
	Fetches int
	Hits    int
	Derived int
	// DeltaApplied counts cached views upgraded in place by an append's
	// delta counts (no backend re-fetch); DeltaDropped counts views an
	// append had to evict: the delta could not be tabulated, or the view
	// grew past the handle's per-view budget.
	DeltaApplied int
	DeltaDropped int
	// MemoHits and MemoMisses count lookups in the result memos of the
	// handle's whole view tree: the handle, its pins and every restricted
	// view below them. The engine keeps its independence tests there, so a
	// miss is a test it executed and a hit one it did not re-run.
	// KeyHits and KeyMisses count the key detector's lookups in the same
	// memos: a miss is one attribute's subsample entropies drawn on a view,
	// a hit a draw it did not repeat. χ² entropies are counted only in the
	// memos' Tally. MemoEntries is the number of results of every kind the
	// handle and its restricted views hold (each pin keeps its own ledger).
	MemoHits    int
	MemoMisses  int
	KeyHits     int
	KeyMisses   int
	MemoEntries int
}

// Relation wraps a source.Relation with the dense count cache. It preserves
// the wrapped backend's identity (Backend), forwards the Materializer,
// Closer and Cardinality capabilities, and keeps restriction views on
// separate caches, so cache keys and session semantics are unchanged. One
// type serves every view of the cache: roots, restricted views and
// snapshot pins (see Pin).
type Relation struct {
	inner source.Relation
	// versioned is inner's snapshot capability, nil for immutable backends.
	// When set, every cache entry is tagged with the version it was
	// computed at and only serves requests pinned to that version.
	versioned source.Versioned
	budget    int
	// root holds the dense views this relation reads and stores: the
	// relation itself, except for a pin, whose root is the cache it was
	// pinned from and whose inner is the snapshot of version ver.
	root *Relation
	ver  uint64

	// account is the cell ledger shared with every restricted-view cache
	// hanging off this handle (and their descendants): one bound covers the
	// whole tree, so a predicate-heavy sweep spawning many per-predicate
	// child caches cannot multiply the memory footprint past the budget.
	account *cellAccount
	// memo keeps results computed from this view's counts; nil when the
	// data can move under the view (versioned or appendable backends).
	// tally counts memo lookups across the whole tree.
	memo  *Memo
	tally *memoTally

	// names is the schema sorted by name, shared by the whole tree (a
	// restriction or a pin keeps the schema). An attribute set is a bitset
	// over names held in a string (setOf): the key of views. A stored view
	// lists its attributes in names order.
	names []string

	mu    sync.Mutex
	n     int
	hasN  bool
	views map[string]*entry
	// byAttr indexes views for the cover search: byAttr[i] lists the views
	// holding names[i], and the extra last list holds every view.
	byAttr     [][]*entry
	totalCells int // this cache's own contribution to account
	restricts  map[string]*Relation
	// deltas remembers recent appends: version v maps to the delta relation
	// whose rows turned v-1 into v. Stale cached views — e.g. ones a
	// long-running pinned analysis tabulated at an old version while appends
	// landed — are upgraded lazily by replaying the chain of deltas instead
	// of re-fetching. Bounded to the last maxDeltas appends.
	deltas map[uint64]source.Relation
	stats  Stats

	// isTop marks a root whose views never move (unversioned, not
	// appendable, not a pin): the views restricted below it slice their
	// misses out of its views. restr is how a restricted view does so, nil
	// when it cannot (see slice).
	isTop bool
	restr *restriction
}

// restriction ties a restricted view to the top of its cache tree. Its
// lazily built fields are guarded by the restricted view's mu.
type restriction struct {
	top  *Relation
	pred source.Predicate // the view's predicate over top, nested restrictions conjoined
	on   []int            // the attributes pred names, as indices into names (ascending)
	// rootOrder is set when top's backend restricts in root order
	// (source.RestrictsInRootOrder): the view's dictionaries are then
	// derived from top's views (see derive) rather than read from the
	// backend.
	rootOrder bool
	// match flags pred on every combination of the on attributes' codes in
	// top, in the dense layout; nil until the first slice. off is set when
	// pred names a value absent from top's dictionary: no slice is exact.
	match []bool
	off   bool
	// recode[i] maps top's codes of names[i] to the view's, −1 for a label
	// the view's dictionary lacks, and labels[i] is the view's dictionary
	// of names[i]; both nil until a slice keeps an attribute or, when
	// rootOrder is set, a dictionary is derived, recode[i] until one is of
	// names[i].
	recode [][]int32
	labels [][]string
}

// entry is one cached dense view tagged with the snapshot version of the
// data it tabulates. Immutable backends use version 0 throughout.
type entry struct {
	dc  *dataset.DenseCounts
	ver uint64
	set string // the view's attribute set, its key in views
	// occ lists the view's occupied cells, built the second time the view
	// is projected (see project) and charged to the ledger with the view.
	// It is set at most once, under the cache's mu, while the entry is
	// stored; reads need no lock. projections counts the projections made
	// before it was built.
	occ         atomic.Pointer[dataset.OccupiedCells]
	projections atomic.Int32
}

// cells returns the ledger charge of e: its view's cells plus its
// occupied-cell list, one cell per 8 bytes.
func (e *entry) cells() int {
	n := len(e.dc.Cells)
	if o := e.occ.Load(); o != nil {
		n += occCells(o)
	}
	return n
}

// occCells is the ledger charge of an occupied-cell list: its bytes in
// 8-byte counters, rounded up.
func occCells(o *dataset.OccupiedCells) int { return (o.Bytes() + 7) / 8 }

// maxTotalCellsFactor bounds the handle's total cached cells as a multiple
// of the per-view budget; past it, arbitrary views are evicted (the cache
// is a pure memo).
const maxTotalCellsFactor = 4

// maxRestricts bounds the memoized restriction wrappers.
const maxRestricts = 256

// cellAccount is the shared dense-cell ledger of one cache tree: the root
// handle and every restricted-view cache below it charge their stored views
// here, and eviction decisions compare against one limit for the whole
// tree. It is a leaf lock — always acquired after any Relation.mu, never
// while holding it across another Relation call.
type cellAccount struct {
	mu    sync.Mutex
	cells int
	limit int
	// memo counts the result-memo entries held across the tree, bounded by
	// maxMemoEntries × maxTreeMemoFactor.
	memo int
}

func (a *cellAccount) add(n int) {
	a.mu.Lock()
	a.cells += n
	a.mu.Unlock()
}

func (a *cellAccount) total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cells
}

// addMemo charges n memo entries to the tree, reporting false (and
// charging nothing) when a positive n would pass the tree bound.
func (a *cellAccount) addMemo(n int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > 0 && a.memo+n > maxMemoEntries*maxTreeMemoFactor {
		return false
	}
	a.memo += n
	return true
}

func (a *cellAccount) memoEntries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.memo
}

// fits reports whether n more cells would stay within the tree limit.
func (a *cellAccount) fits(n int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cells+n <= a.limit
}

// maxDeltas bounds the remembered append deltas; views more than maxDeltas
// versions behind fall back to a re-fetch.
const maxDeltas = 8

// Wrap returns rel behind a count cache with the given per-view cell budget
// (≤ 0 meaning dataset.DefaultCellBudget). Wrapping an already-wrapped
// relation returns it unchanged.
func Wrap(rel source.Relation, budget int) *Relation {
	if c, ok := rel.(*Relation); ok {
		return c
	}
	c := wrap(rel, budget, nil, &memoTally{}, nil)
	c.isTop = c.memo != nil // neither versioned nor appendable
	return c
}

// wrap builds the cache, charging stored views to acct — the parent's (or
// the pin's) ledger for restriction children, a fresh one (sized off this
// handle's budget) for roots — counting memo lookups in the tree's tally
// and interning attribute sets over the tree's names (nil for a root,
// which sorts its schema).
func wrap(rel source.Relation, budget int, acct *cellAccount, tally *memoTally, names []string) *Relation {
	if c, ok := rel.(*Relation); ok {
		return c
	}
	if budget <= 0 {
		budget = dataset.DefaultCellBudget
	}
	if acct == nil {
		acct = &cellAccount{limit: budget * maxTotalCellsFactor}
	}
	if names == nil {
		names = append([]string(nil), rel.Attributes()...)
		sort.Strings(names)
	}
	v, _ := rel.(source.Versioned)
	c := &Relation{
		inner:     rel,
		versioned: v,
		budget:    budget,
		account:   acct,
		tally:     tally,
		names:     names,
		views:     make(map[string]*entry),
		byAttr:    make([][]*entry, len(names)+1),
	}
	c.root = c
	if _, grows := rel.(source.Appender); v == nil && !grows {
		c.memo = newMemo(acct, tally)
	}
	return c
}

// Inner returns the wrapped relation.
func (c *Relation) Inner() source.Relation { return c.inner }

// Stats returns a snapshot of the cache counters (a pin's are those of the
// cache it was pinned from, whose views it reads).
func (c *Relation) Stats() Stats {
	c.root.mu.Lock()
	st := c.root.stats
	c.root.mu.Unlock()
	st.MemoHits = int(c.tally.hits[Tests].Load())
	st.MemoMisses = int(c.tally.misses[Tests].Load())
	st.KeyHits = int(c.tally.hits[KeyEntropies].Load())
	st.KeyMisses = int(c.tally.misses[KeyEntropies].Load())
	st.MemoEntries = c.account.memoEntries()
	return st
}

// Memo returns the view's result memo, or nil for a versioned or
// appendable root, whose data moves under it: pin it first.
func (c *Relation) Memo() *Memo { return c.memo }

// TotalCachedCells returns the dense cells currently held across this
// cache tree — the handle itself plus every restricted-view cache charged
// to the shared ledger. It is bounded by budget × maxTotalCellsFactor no
// matter how many distinct predicates an analysis restricts by.
func (c *Relation) TotalCachedCells() int { return c.account.total() }

// Name implements source.Relation.
func (c *Relation) Name() string { return c.inner.Name() }

// Backend implements source.Relation, forwarding the wrapped identity so
// session caches keyed by it are unaffected by the wrapper.
func (c *Relation) Backend() string { return c.inner.Backend() }

// Attributes implements source.Relation.
func (c *Relation) Attributes() []string { return c.inner.Attributes() }

// HasAttribute implements source.Relation.
func (c *Relation) HasAttribute(name string) bool { return c.inner.HasAttribute(name) }

// NumRows implements source.Relation (memoized; versioned backends answer
// from the current snapshot, which is O(1), and the memo tracks appends). A
// restricted view counts its rows off a view of its tree's top when it can
// (see slice), and asks the backend otherwise.
func (c *Relation) NumRows(ctx context.Context) (int, error) {
	if c.versioned != nil {
		snap, _ := c.versioned.Snapshot()
		return snap.NumRows(ctx)
	}
	c.mu.Lock()
	if c.hasN {
		n := c.n
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	if c.restr != nil {
		none, _ := setOf(c.names, nil)
		dc, err := c.slice(ctx, none, c.budget)
		if err != nil {
			return 0, err
		}
		if dc != nil {
			return dc.Total, nil
		}
	}
	n, err := c.inner.NumRows(ctx)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.n, c.hasN = n, true
	c.mu.Unlock()
	return n, nil
}

// Labels implements source.Relation. A restricted view whose backend
// restricts in root order answers from the dictionary it derives from its
// tree top's views when it can (see derive), and asks the backend
// otherwise.
func (c *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	if labels, ok, err := c.derivedLabels(ctx, attr); ok || err != nil {
		return labels, err
	}
	return c.inner.Labels(ctx, attr)
}

// Cardinality forwards the optional capability, falling back to the
// dictionary length; a derived dictionary answers as Labels does.
func (c *Relation) Cardinality(ctx context.Context, attr string) (int, error) {
	if labels, ok, err := c.derivedLabels(ctx, attr); ok || err != nil {
		return len(labels), err
	}
	return source.Card(ctx, c.inner, attr)
}

// Counts implements source.Relation. Unpredicated requests are rendered
// from the dense cache (marginalizing the smallest covering view, or
// slicing one of the tree top's, see Restrict); requests above the budget
// and requests carrying a predicate — query execution, whose predicates
// rarely repeat across an analysis — pass through to the backend.
func (c *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if where != nil {
		return c.inner.Counts(ctx, attrs, where)
	}
	src, ver := c.source()
	dc, err := c.root.denseAt(ctx, src, ver, attrs, 0)
	if err != nil {
		return nil, err
	}
	if dc == nil {
		return src.Counts(ctx, attrs, nil)
	}
	return dc.Map(), nil
}

// source resolves the relation one read should tabulate from: the current
// snapshot (with its version) for versioned backends, the backend itself
// otherwise (version 0, or for a pin the pinned snapshot and its version).
// Fetching from a snapshot instead of the live relation is what makes
// version tags exact — the data a fetch sees is always precisely the
// version the entry is tagged with, even if an append lands mid-read.
func (c *Relation) source() (source.Relation, uint64) {
	if c.versioned != nil {
		return c.versioned.Snapshot()
	}
	return c.inner, c.ver
}

// DenseCounts implements source.DenseCounter. An explicit budget overrides
// the handle's own (in either direction — a caller may permit a larger
// tabulation than the cache default).
func (c *Relation) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if where != nil {
		return source.Dense(ctx, c.inner, attrs, where, budget)
	}
	src, ver := c.source()
	return c.root.denseAt(ctx, src, ver, attrs, budget)
}

// Prime fetches the finest dense view over attrs — one backend round trip —
// so every subsequent Counts over a subset is answered by marginalization.
// budget overrides the handle's cell budget for this closure (≤ 0 meaning
// the handle budget); closures above the effective budget are skipped
// silently (requests then fall through to the backend).
func (c *Relation) Prime(ctx context.Context, attrs []string, budget int) error {
	src, ver := c.source()
	_, err := c.root.denseAt(ctx, src, ver, attrs, budget)
	return err
}

// Restrict implements source.Relation: the restriction is delegated to the
// backend and the resulting view wrapped in its own cache. Wrappers are
// memoized per canonical predicate key (dataset.PredicateKey), so the
// several phases of one analysis that restrict by the same WHERE clause
// (context splitting, balance testing, per-context significance) share one
// restricted cache — and, for the mem backend, one row selection. Below a
// root whose views never move (unversioned, not appendable), a restricted
// view slices each miss out of a cached view of the root that covers it
// and the predicate's attributes, coded in the backend's restricted
// dictionaries, and asks the backend only when the root holds no such view
// (see slice); nested restrictions slice from the same root under their
// conjoined predicates. When the backend restricts in root order
// (source.RestrictsInRootOrder), the view derives those dictionaries from
// the root's views too (see derive), and its Labels and Cardinality answer
// from them: the backend is asked for none of its dictionaries. A pin
// restricts its snapshot, so its restricted views cannot race an append,
// and charges them to its own ledger; they always ask the backend. A
// predicate without a canonical key is restricted afresh each time under a
// ledger of its own, as a pin is, so its cells never reach the shared
// account, and is never sliced.
func (c *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return c, nil
	}
	key, canonical := dataset.PredicateKey(where)
	c.mu.Lock()
	if child, ok := c.restricts[key]; ok && canonical {
		c.mu.Unlock()
		return child, nil
	}
	c.mu.Unlock()

	inner, err := c.inner.Restrict(ctx, where)
	if err != nil {
		return nil, err
	}
	if inner == c.inner {
		return c, nil
	}
	if !canonical {
		return wrap(inner, c.budget, nil, c.tally, c.names), nil
	}
	child := wrap(inner, c.budget, c.account, c.tally, c.names)
	child.restr = c.restrictionOf(where)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.restricts == nil {
		c.restricts = make(map[string]*Relation)
	}
	if prev, ok := c.restricts[key]; ok {
		return prev, nil // racing restriction: keep one wrapper
	}
	for k := range c.restricts {
		if len(c.restricts) < maxRestricts {
			break
		}
		c.restricts[k].dropAllViews()
		delete(c.restricts, k)
	}
	c.restricts[key] = child
	return child, nil
}

// restrictionOf returns how the view restricted from c by the canonical
// predicate where slices its misses out of the top of c's tree, or nil when
// it cannot: c is neither a top nor restricted below one, or where names an
// attribute outside the schema.
func (c *Relation) restrictionOf(where source.Predicate) *restriction {
	r := &restriction{top: c, pred: where}
	switch {
	case c.restr != nil:
		r.top, r.pred = c.restr.top, dataset.And{c.restr.pred, where}
	case !c.isTop:
		return nil
	}
	attrs, ok := dataset.PredicateAttrs(r.pred)
	if !ok {
		return nil
	}
	r.rootOrder = source.RestrictsInRootOrder(r.top.inner)
	for _, a := range attrs {
		i := sort.SearchStrings(c.names, a)
		if i == len(c.names) || c.names[i] != a {
			return nil
		}
		r.on = append(r.on, i)
	}
	return r
}

// slice answers a miss of the restricted view c over set out of a cached
// view of its tree's top, without the backend: the top's view that covers
// set and the predicate's attributes, and whose occupied cells are the
// fewest (findCoverLocked), has its cells walked (its occupied-cell list
// built and published as project does), those matching the predicate kept
// and projected onto set, and each kept code mapped into the view's own
// dictionary (recodeOf, dataset.OccupiedCells.Slice). The matched total is
// the view's row count, which slice records. It returns nil when c cannot
// slice, the top holds no cover, the predicate names a value absent from
// the top's dictionary, a matched label is absent from the view's
// dictionary, or the result does not fit the budget as a backend
// tabulation would (which declines it too): the caller then asks the
// backend.
func (c *Relation) slice(ctx context.Context, set string, budget int) (*dataset.DenseCounts, error) {
	r := c.restr
	if r == nil {
		return nil, nil
	}
	top := r.top
	cover := r.cover(set)
	if cover == nil {
		return nil, nil
	}
	match, err := c.sliceMatch(ctx)
	if match == nil || err != nil {
		return nil, err
	}
	var keep, cards []int
	var recode [][]int32
	for i := range members(set) {
		rc, card, err := c.recodeOf(ctx, i)
		if err != nil {
			return nil, err
		}
		keep = append(keep, rank(cover.set, i))
		recode = append(recode, rc)
		cards = append(cards, card)
	}
	if _, ok := dataset.DenseSize(cards, budget); !ok {
		return nil, nil
	}
	o := top.occupied(cover)
	if o == nil {
		return nil, nil
	}
	dc, err := o.Slice(keep, recode, cards, r.ranks(cover), match)
	if dc == nil || err != nil {
		return nil, err
	}
	if _, ok := dataset.DenseSize(cards, dataset.EffectiveBudget(budget, dc.Total)); !ok {
		return nil, nil
	}
	c.mu.Lock()
	c.n, c.hasN = dc.Total, true
	c.mu.Unlock()
	return dc, nil
}

// cover returns the top's cached view that covers set and the predicate's
// attributes and whose occupied cells are the fewest (findCoverLocked), or
// nil. A top that lists no view over one of the predicate's attributes is
// seen under one lock with no allocation.
func (r *restriction) cover(set string) *entry {
	top := r.top
	top.mu.Lock()
	defer top.mu.Unlock()
	for _, i := range r.on {
		if len(top.byAttr[i]) == 0 {
			return nil
		}
	}
	want := []byte(set)
	for _, i := range r.on {
		want[i/8] |= 1 << (i % 8)
	}
	return top.findCoverLocked(string(want), 0)
}

// ranks returns the positions of the predicate's attributes in cover.
func (r *restriction) ranks(cover *entry) []int {
	on := make([]int, len(r.on))
	for q, i := range r.on {
		on[q] = rank(cover.set, i)
	}
	return on
}

// sliceMatch returns the restriction's match flags, evaluating its
// predicate over the top's dictionaries on the first call, or nil when no
// slice of c is exact.
func (c *Relation) sliceMatch(ctx context.Context) ([]bool, error) {
	r := c.restr
	c.mu.Lock()
	match, off := r.match, r.off
	c.mu.Unlock()
	if match != nil || off {
		return match, nil
	}
	attrs := make([]string, len(r.on))
	labels := make([][]string, len(r.on))
	for q, i := range r.on {
		attrs[q] = c.names[i]
		l, err := r.top.inner.Labels(ctx, attrs[q])
		if err != nil {
			return nil, err
		}
		labels[q] = l
	}
	match, exact, err := dataset.EvalCells(r.pred, attrs, labels)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !exact {
		r.off = true
	} else if r.match == nil {
		r.match = match
	}
	return r.match, nil
}

// recodeOf returns the map from the top's codes of names[i] to c's, and
// c's cardinality of names[i], computed on the first call: derived from
// the top's views when the backend restricts in root order and a cover is
// cached (derivedDict), built from the top's and the backend's
// dictionaries otherwise.
func (c *Relation) recodeOf(ctx context.Context, i int) ([]int32, int, error) {
	rc, to, err := c.derivedDict(ctx, i)
	if rc != nil || err != nil {
		return rc, len(to), err
	}
	from, err := c.restr.top.inner.Labels(ctx, c.names[i])
	if err != nil {
		return nil, 0, err
	}
	if to, err = c.inner.Labels(ctx, c.names[i]); err != nil {
		return nil, 0, err
	}
	index := make(map[string]int32, len(to))
	for code, l := range to {
		index[l] = int32(code)
	}
	rc = make([]int32, len(from))
	for code, l := range from {
		if v, ok := index[l]; ok {
			rc[code] = v
		} else {
			rc[code] = -1
		}
	}
	rc, to = c.keepDict(i, rc, to)
	return rc, len(to), nil
}

// derivedLabels returns c's dictionary of attr derived from its tree top's
// views, ok false when c's backend does not restrict in root order, attr is
// outside the schema, or the dictionary cannot be derived.
func (c *Relation) derivedLabels(ctx context.Context, attr string) (labels []string, ok bool, err error) {
	if c.restr == nil || !c.restr.rootOrder {
		return nil, false, nil
	}
	i := sort.SearchStrings(c.names, attr)
	if i == len(c.names) || c.names[i] != attr {
		return nil, false, nil
	}
	rc, labels, err := c.derivedDict(ctx, i)
	return labels, rc != nil, err
}

// derivedDict returns c's kept recode and dictionary of names[i], first
// deriving and keeping them when c's backend restricts in root order
// (derive), or a nil recode when none is kept or derivable.
func (c *Relation) derivedDict(ctx context.Context, i int) ([]int32, []string, error) {
	r := c.restr
	c.mu.Lock()
	var rc []int32
	var labels []string
	if r.recode != nil {
		rc, labels = r.recode[i], r.labels[i]
	}
	c.mu.Unlock()
	if rc != nil || !r.rootOrder {
		return rc, labels, nil
	}
	rc, labels, err := c.derive(ctx, i)
	if rc == nil || err != nil {
		return nil, nil, err
	}
	rc, labels = c.keepDict(i, rc, labels)
	return rc, labels, nil
}

// derive computes, for a backend that restricts in root order, c's
// dictionary of names[i] and the map from the top's codes into it out of
// the top's views: the one-attribute marginal of names[i] under the
// predicate is sliced, with every code kept, out of the top's view with the
// fewest occupied cells that covers names[i] and the predicate's
// attributes (cover, dataset.OccupiedCells.Slice). The top's
// codes with a non-zero count are renumbered in order and every other
// code maps to −1: by the source.RestrictsInRootOrder promise, that is the
// backend's restricted dictionary. It returns nil when the top holds no
// such cover, no slice of c is exact (sliceMatch), or the cover's
// cardinality disagrees with the top's dictionary; the caller then reads
// the backend's dictionary.
func (c *Relation) derive(ctx context.Context, i int) ([]int32, []string, error) {
	r := c.restr
	top := r.top
	one, _ := setOf(c.names, c.names[i:i+1])
	cover := r.cover(one)
	if cover == nil {
		return nil, nil, nil
	}
	match, err := c.sliceMatch(ctx)
	if match == nil || err != nil {
		return nil, nil, err
	}
	from, err := top.inner.Labels(ctx, c.names[i])
	if err != nil {
		return nil, nil, err
	}
	k := rank(cover.set, i)
	if len(from) != cover.dc.Cards[k] {
		return nil, nil, nil
	}
	o := top.occupied(cover)
	if o == nil {
		return nil, nil, nil
	}
	identity := make([]int32, len(from))
	for code := range identity {
		identity[code] = int32(code)
	}
	marginal, err := o.Slice([]int{k}, [][]int32{identity}, []int{len(from)}, r.ranks(cover), match)
	if marginal == nil || err != nil {
		return nil, nil, err
	}
	rc := identity // the slice is done with it
	var labels []string
	for code, n := range marginal.Cells {
		if n == 0 {
			rc[code] = -1
			continue
		}
		rc[code] = int32(len(labels))
		labels = append(labels, from[code])
	}
	return rc, labels, nil
}

// keepDict keeps rc and labels as c's recode and dictionary of names[i]
// unless a racing call kept its own first, and returns the kept ones.
func (c *Relation) keepDict(i int, rc []int32, labels []string) ([]int32, []string) {
	r := c.restr
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.recode == nil {
		r.recode, r.labels = make([][]int32, len(c.names)), make([][]string, len(c.names))
	}
	if r.recode[i] == nil {
		r.recode[i], r.labels[i] = rc, labels
	}
	return r.recode[i], r.labels[i]
}

// dropAllViews empties this cache, its result memo and every
// restricted-view cache below it, returning their cells and memo entries
// to the shared ledger. Called when a wrapper leaves its parent's
// restriction memo (eviction, append invalidation) — dropped wrappers may
// still be referenced by in-flight readers, which keep working but
// re-fetch on their next miss.
func (c *Relation) dropAllViews() {
	c.mu.Lock()
	c.views = make(map[string]*entry)
	c.byAttr = make([][]*entry, len(c.names)+1)
	c.account.add(-c.totalCells)
	c.totalCells = 0
	kids := c.restricts
	c.restricts = nil
	c.mu.Unlock()
	if c.memo != nil {
		c.memo.drop()
	}
	for _, k := range kids {
		k.dropAllViews()
	}
}

// Materialize forwards the row-level capability of the wrapped backend;
// counts-only backends keep failing with ErrNeedsMaterialization.
func (c *Relation) Materialize(ctx context.Context) (*dataset.Table, error) {
	return source.Materialize(ctx, c.inner)
}

// Table forwards the zero-cost in-memory table capability of backends that
// have one (source/mem), and returns nil otherwise — so capability probes
// like key detection's row sampler see through the cache wrapper.
func (c *Relation) Table() *dataset.Table {
	if t, ok := c.inner.(interface{ Table() *dataset.Table }); ok {
		return t.Table()
	}
	return nil
}

// Close implements source.Closer by forwarding (a no-op for resource-free
// backends).
func (c *Relation) Close() error {
	if cl, ok := c.inner.(source.Closer); ok {
		return cl.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Streaming ingestion: delta application and snapshot pinning

// Append implements source.Appender when the wrapped backend does: the rows
// are appended to the backend (creating a new snapshot version), and every
// cached dense view of the previous version is upgraded in place by adding
// the appended batch's counts — re-strided first when the append grew a
// dictionary — instead of being invalidated. One O(delta-rows) tabulation
// per cached view replaces a full backend re-fetch; the cache stays primed
// across ingestion.
func (c *Relation) Append(ctx context.Context, rows [][]string) (*source.AppendResult, error) {
	ap, ok := c.inner.(source.Appender)
	if !ok {
		return nil, fmt.Errorf("countcache: backend %s cannot grow: %w", c.inner.Backend(), hyperr.ErrNotAppendable)
	}
	res, err := ap.Append(ctx, rows)
	if err != nil {
		return nil, err
	}
	if res.Appended > 0 && res.Delta != nil {
		c.applyDelta(ctx, res)
	}
	return res, nil
}

// applyDelta patches the cache after one append. Views tagged with the
// immediately preceding version are upgraded (grown to the new
// cardinalities, delta cells added, re-tagged); views that cannot be
// patched are evicted and will re-fetch lazily. Restriction wrappers are
// dropped — their data moved — and the row-count memo is advanced.
func (c *Relation) applyDelta(ctx context.Context, res *source.AppendResult) {
	c.mu.Lock()
	todo := make([]*entry, 0, len(c.views))
	for _, e := range c.views {
		if e.ver == res.Version-1 {
			todo = append(todo, e)
		}
	}
	c.mu.Unlock()

	for _, e := range todo {
		upgraded, err := upgradeView(ctx, e.dc, res.Delta, c.budget)
		c.mu.Lock()
		if c.views[e.set] != e {
			c.mu.Unlock()
			continue // evicted or replaced meanwhile: nothing to upgrade
		}
		c.dropLocked(e)
		if err != nil || upgraded == nil {
			c.stats.DeltaDropped++
		} else {
			c.putLocked(&entry{dc: upgraded, ver: res.Version, set: e.set})
			c.stats.DeltaApplied++
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	c.n, c.hasN = res.NumRows, true
	kids := c.restricts
	c.restricts = nil
	for _, k := range kids {
		k.dropAllViews() // their data moved: return their cells to the ledger
	}
	if c.deltas == nil {
		c.deltas = make(map[uint64]source.Relation)
	}
	c.deltas[res.Version] = res.Delta
	for v := range c.deltas {
		if v+maxDeltas <= res.Version {
			delete(c.deltas, v)
		}
	}
	c.mu.Unlock()
}

// deltaChainLocked returns the deltas that turn version from into version
// to, oldest first, or nil when any link is missing. Callers hold c.mu.
func (c *Relation) deltaChainLocked(from, to uint64) []source.Relation {
	if from >= to {
		return nil
	}
	chain := make([]source.Relation, 0, to-from)
	for v := from + 1; v <= to; v++ {
		d, ok := c.deltas[v]
		if !ok {
			return nil
		}
		chain = append(chain, d)
	}
	return chain
}

// upgradeView produces the next-version copy of one cached view: the old
// cells re-strided to the delta's (possibly grown) cardinalities plus the
// delta's cells, added by cell index, or nil when the grown cell space
// exceeds budget. The delta is tabulated in whichever form suits its few
// rows — a dense read would decline any view wider than a few rows' worth
// of cells. The cached view itself is never mutated — readers may hold
// references to it.
func upgradeView(ctx context.Context, old *dataset.DenseCounts, delta source.Relation, budget int) (*dataset.DenseCounts, error) {
	dd, err := source.Tabulate(ctx, delta, old.Attrs)
	if err != nil {
		return nil, err
	}
	if _, ok := dataset.DenseSize(dd.Cards, budget); !ok {
		return nil, nil
	}
	grown, err := old.Grown(dd.Cards)
	if err != nil {
		return nil, err
	}
	if err := grown.AddCells(dd); err != nil {
		return nil, err
	}
	return grown, nil
}

// Pin returns the relation one analysis should read through: for versioned
// backends, a view pinned to the current snapshot version — every count it
// serves comes from that version (from version-matching entries of this
// cache, or from the pinned snapshot on a miss, stored under the pin's
// version tag without clobbering newer epochs), so an in-flight analysis
// never mixes epochs no matter how many appends land meanwhile. The pin
// wraps the snapshot, which is neither versioned nor appendable, so it has
// a result memo and a cell ledger of its own: both die with the pin rather
// than stay charged to a root that outlives every pin. Immutable backends
// pin to the cache itself.
func (c *Relation) Pin() *Relation {
	if c.versioned == nil {
		return c
	}
	snap, ver := c.versioned.Snapshot()
	p := wrap(snap, c.budget, nil, c.tally, c.names)
	p.root, p.ver = c, ver
	return p
}

// Version returns the snapshot version a pin reads, or 0 for a relation
// that is not a pin (snapshot versions start at 1).
func (c *Relation) Version() uint64 { return c.ver }

// setOf interns attrs as a set over names: a bitset, one bit per name,
// held in a string. It reports false when attrs names an attribute outside
// names or names one attribute twice.
func setOf(names, attrs []string) (string, bool) {
	set := make([]byte, (len(names)+7)/8)
	for _, a := range attrs {
		i := sort.SearchStrings(names, a)
		if i == len(names) || names[i] != a || set[i/8]&(1<<(i%8)) != 0 {
			return "", false
		}
		set[i/8] |= 1 << (i % 8)
	}
	return string(set), true
}

// members yields the bits of set in ascending order: its attributes in
// names order.
func members(set string) iter.Seq[int] {
	return func(yield func(int) bool) {
		for k := 0; k < len(set); k++ {
			for b := set[k]; b != 0; b &= b - 1 {
				if !yield(8*k + bits.TrailingZeros8(b)) {
					return
				}
			}
		}
	}
}

// rank returns the number of bits of set below bit i: the position of
// attribute i in a view over set.
func rank(set string, i int) int {
	n := bits.OnesCount8(set[i/8] & (1<<(i%8) - 1))
	for k := 0; k < i/8; k++ {
		n += bits.OnesCount8(set[k])
	}
	return n
}

// covers reports whether the set have contains the set want.
func covers(have, want string) bool {
	for k := 0; k < len(want); k++ {
		if want[k]&^have[k] != 0 {
			return false
		}
	}
	return true
}

// denseAt returns the dense view over attrs in request order at the given
// snapshot version, or nil when the cell space exceeds the effective
// budget (budget ≤ 0 meaning the handle budget). src is the relation to
// tabulate from on a miss — the pinned snapshot whose data IS version ver,
// so entries are tagged exactly. The cached view of the version whose
// attribute set contains the request and whose occupied cells are the
// cheapest to walk serves it (findCoverLocked); the view over the set is
// stored in names order, and request order is restored by one more
// projection. A restricted view with no cover of its own slices the
// request out of its tree top's views when it can (slice), and only then
// fetches. Projecting a view stored before the request — the cover, or
// the set's own view read in another order — walks the view's
// occupied-cell list from the view's second projection on, so it costs
// O(occupied cells) rather than O(cells); a view's first projection, and
// the reorder of a view fetched or derived for this request, are one pass
// over its cells. A request naming
// an attribute outside the schema, or one attribute twice, goes to the
// backend unstored. The projections and list builds run outside the handle
// lock (views and lists are immutable once stored, and a racing duplicate
// computation is benign: last writer wins with identical data), so
// concurrent analyses sharing one handle only contend on map lookups.
func (c *Relation) denseAt(ctx context.Context, src source.Relation, ver uint64, attrs []string, budget int) (*dataset.DenseCounts, error) {
	effective := c.budget
	if budget > 0 {
		effective = budget
	}
	set, ok := setOf(c.names, attrs)
	if !ok {
		return source.Dense(ctx, src, attrs, nil, effective)
	}

	c.mu.Lock()
	var view, stale *dataset.DenseCounts
	var held *entry // the entry of a view stored before this request
	var chain []source.Relation
	if e, ok := c.views[set]; ok {
		if e.ver == ver {
			c.stats.Hits++
			view, held = e.dc, e
		} else if e.ver < ver {
			// An exact view a few appends behind: replay the delta chain
			// instead of re-fetching.
			if chain = c.deltaChainLocked(e.ver, ver); chain != nil {
				stale = e.dc
			}
		}
	}
	var cover *entry
	if view == nil && stale == nil {
		cover = c.findCoverLocked(set, ver)
	}
	c.mu.Unlock()

	if view == nil && stale != nil {
		up := stale
		for _, d := range chain {
			next, err := upgradeView(ctx, up, d, c.budget)
			if err != nil || next == nil {
				up = nil
				break
			}
			up = next
		}
		if up != nil {
			c.mu.Lock()
			c.stats.DeltaApplied++
			c.storeLocked(set, up, ver)
			c.mu.Unlock()
			view = up
		} else {
			c.mu.Lock()
			c.stats.DeltaDropped++
			cover = c.findCoverLocked(set, ver)
			c.mu.Unlock()
		}
	}
	if view == nil && cover != nil {
		keep := make([]int, 0, len(attrs))
		for i := range members(set) {
			keep = append(keep, rank(cover.set, i))
		}
		out, err := c.project(cover, keep)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Derived++
		c.storeLocked(set, out, ver)
		c.mu.Unlock()
		view = out
	}
	if view == nil {
		out, err := c.slice(ctx, set, effective)
		if err != nil {
			return nil, err
		}
		if out != nil {
			c.mu.Lock()
			c.stats.Derived++
			c.storeLocked(set, out, ver)
			c.mu.Unlock()
			view = out
		}
	}
	if view == nil {
		sorted := make([]string, 0, len(attrs))
		for i := range members(set) {
			sorted = append(sorted, c.names[i])
		}
		dc, err := source.Dense(ctx, src, sorted, nil, effective)
		if err != nil || dc == nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Fetches++
		c.storeLocked(set, dc, ver)
		c.mu.Unlock()
		view = dc
	}
	if budget > 0 && len(view.Cells) > budget {
		// An explicitly tighter budget than the view the cache holds: honor
		// the DenseCounter contract rather than returning an oversized view.
		return nil, nil
	}
	if sort.StringsAreSorted(attrs) {
		return view, nil // the stored view itself: callers treat it as read-only
	}
	pos := make([]int, len(attrs))
	for j, a := range attrs {
		pos[j] = rank(set, sort.SearchStrings(c.names, a))
	}
	if held == nil {
		return view.Project(pos)
	}
	return c.project(held, pos)
}

// project marginalizes the view of e onto the positions keep. The first
// projection of a view sweeps its cells once, as a view projected only
// once needs no more; the second builds the view's occupied-cell list
// outside the lock, and it and every later projection walk the list.
// Racing builders each build one, the first to publish wins, and the list
// is published and charged to the ledger only while e is stored and the
// ledger has room — otherwise it serves this projection alone.
func (c *Relation) project(e *entry, keep []int) (*dataset.DenseCounts, error) {
	if e.occ.Load() == nil && e.projections.Add(1) == 1 {
		return e.dc.Project(keep)
	}
	o := c.occupied(e)
	if o == nil {
		return e.dc.Project(keep)
	}
	return o.Project(keep)
}

// occupied returns the occupied-cell list of e's view, building it outside
// the lock when e has none, or nil for a sparse view. The list is
// published as project describes.
func (c *Relation) occupied(e *entry) *dataset.OccupiedCells {
	if o := e.occ.Load(); o != nil {
		return o
	}
	o := e.dc.Occupied()
	if o == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if won := e.occ.Load(); won != nil {
		return won
	}
	if n := occCells(o); c.views[e.set] == e && c.account.fits(n) {
		e.occ.Store(o)
		c.totalCells += n
		c.account.add(n)
	}
	return o
}

// findCoverLocked returns the cached view of version ver whose attribute
// set contains want and whose projection walks the fewest cells, or nil: a
// view whose occupied cells are listed walks that list, any other view the
// whole cell space it sweeps to build one. Only the views holding want's
// rarest attribute are scanned (every view for the empty set). Views of
// other versions never qualify — marginalizing across epochs would mix
// them. Callers hold c.mu.
func (c *Relation) findCoverLocked(want string, ver uint64) *entry {
	list := c.byAttr[len(c.names)]
	for i := range members(want) {
		if len(c.byAttr[i]) < len(list) {
			list = c.byAttr[i]
		}
	}
	var best *entry
	bestCost := 0
	for _, e := range list {
		if e.ver != ver || !covers(e.set, want) {
			continue
		}
		cost := len(e.dc.Cells)
		if o := e.occ.Load(); o != nil {
			cost = o.Len()
		}
		if best == nil || cost < bestCost {
			best, bestCost = e, cost
		}
	}
	return best
}

// storeLocked inserts a view tagged with its snapshot version, evicting
// arbitrary views past the tree-wide cell bound. A pinned reader
// re-fetching an old version never clobbers a newer entry for the same
// set: the newer epoch wins and the old result is simply served unstored.
// When even evicting this cache's own views and restriction children
// cannot make room — sibling caches of the tree hold the remaining ledger
// — the view is served unstored rather than blowing the bound. Callers
// hold c.mu.
func (c *Relation) storeLocked(set string, dc *dataset.DenseCounts, ver uint64) {
	if old, exists := c.views[set]; exists {
		if old.ver > ver {
			return
		}
		c.dropLocked(old) // racing fetches of one set: replace, don't double-count
	}
	need := len(dc.Cells)
	for _, e := range c.views {
		if c.account.fits(need) {
			break
		}
		c.dropLocked(e)
	}
	for k := range c.restricts {
		if c.account.fits(need) {
			break
		}
		c.restricts[k].dropAllViews()
		delete(c.restricts, k)
	}
	if !c.account.fits(need) {
		return
	}
	c.putLocked(&entry{dc: dc, ver: ver, set: set})
}

// putLocked stores e: it enters views and the index list of each of its
// attributes and of every view, and its cells (and occupied-cell list, if
// any) are charged to this cache and the tree's ledger. Callers hold c.mu.
func (c *Relation) putLocked(e *entry) {
	c.views[e.set] = e
	for i := range members(e.set) {
		c.byAttr[i] = append(c.byAttr[i], e)
	}
	all := len(c.names)
	c.byAttr[all] = append(c.byAttr[all], e)
	c.totalCells += e.cells()
	c.account.add(e.cells())
}

// dropLocked removes a stored e, undoing putLocked. Callers hold c.mu.
func (c *Relation) dropLocked(e *entry) {
	delete(c.views, e.set)
	for i := range members(e.set) {
		c.byAttr[i] = without(c.byAttr[i], e)
	}
	all := len(c.names)
	c.byAttr[all] = without(c.byAttr[all], e)
	c.totalCells -= e.cells()
	c.account.add(-e.cells())
}

// without removes e from list.
func without(list []*entry, e *entry) []*entry {
	j := slices.Index(list, e)
	return slices.Delete(list, j, j+1)
}

var (
	_ source.Relation     = (*Relation)(nil)
	_ source.DenseCounter = (*Relation)(nil)
	_ source.Closer       = (*Relation)(nil)
	_ source.Materializer = (*Relation)(nil)
	_ source.Appender     = (*Relation)(nil)
)
