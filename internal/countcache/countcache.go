// Package countcache implements HypDB's marginalization-serving count
// cache: a source.Relation wrapper that memoizes dense (mixed-radix)
// group-by views and answers any Counts request whose attribute set is
// covered by a cached view by marginalizing it in O(cells) — never going
// back to the backend. Sec 6 of the paper observes that "contingency tables
// with their marginals are essentially OLAP data-cubes"; this package is
// that observation promoted into the storage layer, shared by every
// consumer of counts (entropy providers, covariate-discovery scoring, the
// MIT group tables, query rewriting) instead of being rebuilt privately by
// each of them.
//
// Prime fetches the finest view over an attribute closure in one backend
// round trip (one GROUP BY query on SQL backends, one columnar scan in
// memory); after priming, the subset enumeration of a covariate-discovery
// hill climb runs entirely against the cache. Views are bounded by a cell
// budget per view and a total-cell bound per handle; requests above the
// budget pass through to the backend unchanged.
package countcache

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// Stats reports one handle's cache traffic.
type Stats struct {
	// Fetches counts backend round trips for dense views; Hits counts
	// requests answered from a cached view of exactly the requested
	// attribute set (at the requested version); Derived counts requests
	// answered by marginalizing a cached superset view.
	Fetches int
	Hits    int
	Derived int
	// DeltaApplied counts cached views upgraded in place by an append's
	// delta counts (no backend re-fetch); DeltaDropped counts views an
	// append had to evict because the delta could not be tabulated.
	DeltaApplied int
	DeltaDropped int
	// MemoHits and MemoMisses count lookups in the result memos of the
	// handle's whole view tree: the handle, its pins and every restricted
	// view below them. The engine keeps its independence tests there, so a
	// miss is a test it executed and a hit one it did not re-run.
	// MemoEntries is the number of results the handle and its restricted
	// views hold (each pin keeps its own ledger).
	MemoHits    int
	MemoMisses  int
	MemoEntries int
}

// Relation wraps a source.Relation with the dense count cache. It preserves
// the wrapped backend's identity (Backend), forwards the Materializer,
// Closer and Cardinality capabilities, and keeps restriction views on
// separate caches, so cache keys and session semantics are unchanged.
type Relation struct {
	inner source.Relation
	// versioned is inner's snapshot capability, nil for immutable backends.
	// When set, every cache entry is tagged with the version it was
	// computed at and only serves requests pinned to that version.
	versioned source.Versioned
	budget    int

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

	mu         sync.Mutex
	n          int
	hasN       bool
	views      map[string]*entry             // canonical (sorted, joined) attrs -> dense view
	wide       []string                      // keys of the widest views: the derivation candidates
	maps       map[string]map[source.Key]int // request-order attrs -> sparse map form memo
	mapsVer    uint64                        // version the sparse memo belongs to
	totalCells int                           // this cache's own contribution to account
	restricts  map[string]*Relation
	// deltas remembers recent appends: version v maps to the delta relation
	// whose rows turned v-1 into v. Stale cached views — e.g. ones a
	// long-running pinned analysis tabulated at an old version while appends
	// landed — are upgraded lazily by replaying the chain of deltas instead
	// of re-fetching. Bounded to the last maxDeltas appends.
	deltas map[uint64]source.Relation
	stats  Stats
}

// entry is one cached dense view tagged with the snapshot version of the
// data it tabulates. Immutable backends use version 0 throughout.
type entry struct {
	dc  *dataset.DenseCounts
	ver uint64
}

// maxMapMemos bounds the sparse-form memo (maps are derived from views in
// one pass, so eviction only costs a rebuild).
const maxMapMemos = 128

// maxTotalCellsFactor bounds the handle's total cached cells as a multiple
// of the per-view budget; past it, arbitrary views are evicted (the cache
// is a pure memo).
const maxTotalCellsFactor = 4

// maxWide bounds the derivation-candidate list. Coverage search must stay
// O(1) per request — scanning every memoized view made the search itself
// quadratic in the number of distinct attribute sets an analysis touches —
// so only the widest views (the primed closures and the broadest joints,
// which cover almost everything worth deriving) are candidates; narrower
// requests that miss them fall through to the backend, which is never worse
// than the uncached path.
const maxWide = 32

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
	return wrap(rel, budget, nil, &memoTally{})
}

// wrap builds the cache, charging stored views to acct — the parent's (or
// the pin's) ledger for restriction children, a fresh one (sized off this
// handle's budget) for roots — and counting memo lookups in the tree's
// tally.
func wrap(rel source.Relation, budget int, acct *cellAccount, tally *memoTally) *Relation {
	if c, ok := rel.(*Relation); ok {
		return c
	}
	if budget <= 0 {
		budget = dataset.DefaultCellBudget
	}
	if acct == nil {
		acct = &cellAccount{limit: budget * maxTotalCellsFactor}
	}
	v, _ := rel.(source.Versioned)
	c := &Relation{
		inner:     rel,
		versioned: v,
		budget:    budget,
		account:   acct,
		tally:     tally,
		views:     make(map[string]*entry),
	}
	if _, grows := rel.(source.Appender); v == nil && !grows {
		c.memo = newMemo(acct, tally)
	}
	return c
}

// Inner returns the wrapped relation.
func (c *Relation) Inner() source.Relation { return c.inner }

// Stats returns a snapshot of the cache counters.
func (c *Relation) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.MemoHits = int(c.tally.hits.Load())
	st.MemoMisses = int(c.tally.misses.Load())
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
// from the current snapshot, which is O(1), and the memo tracks appends).
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
	n, err := c.inner.NumRows(ctx)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.n, c.hasN = n, true
	c.mu.Unlock()
	return n, nil
}

// Labels implements source.Relation.
func (c *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	return c.inner.Labels(ctx, attr)
}

// Cardinality forwards the optional capability, falling back to the
// dictionary length.
func (c *Relation) Cardinality(ctx context.Context, attr string) (int, error) {
	return source.Card(ctx, c.inner, attr)
}

// Counts implements source.Relation. Unpredicated requests are served from
// the dense cache (marginalizing the smallest covering view), with the
// sparse map form memoized per request order so repeated identical calls
// return the cached map instead of re-walking the cells. Predicated
// requests pass through — they belong to query execution, whose predicates
// rarely repeat across an analysis. Callers must treat the returned map as
// read-only (the same contract the SQL backend's memo imposes).
func (c *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if where != nil {
		return c.inner.Counts(ctx, attrs, where)
	}
	src, ver := c.source()
	okey := strings.Join(attrs, "\x00")
	c.mu.Lock()
	if c.mapsVer == ver {
		if m, ok := c.maps[okey]; ok {
			c.stats.Hits++
			c.mu.Unlock()
			return m, nil
		}
	}
	c.mu.Unlock()

	dc, err := c.denseAt(ctx, src, ver, attrs, 0)
	if err != nil {
		return nil, err
	}
	if dc == nil {
		return src.Counts(ctx, attrs, nil)
	}
	m := dc.Map()
	c.mu.Lock()
	if c.mapsVer == ver {
		if c.maps == nil {
			c.maps = make(map[string]map[source.Key]int)
		}
		for k := range c.maps {
			if len(c.maps) < maxMapMemos {
				break
			}
			delete(c.maps, k)
		}
		c.maps[okey] = m
	}
	c.mu.Unlock()
	return m, nil
}

// source resolves the relation one read should tabulate from: the current
// snapshot (with its version) for versioned backends, the backend itself
// (version 0) otherwise. Fetching from a snapshot instead of the live
// relation is what makes version tags exact — the data a fetch sees is
// always precisely the version the entry is tagged with, even if an append
// lands mid-read.
func (c *Relation) source() (source.Relation, uint64) {
	if c.versioned != nil {
		return c.versioned.Snapshot()
	}
	return c.inner, 0
}

// DenseCounts implements source.DenseCounter. An explicit budget overrides
// the handle's own (in either direction — a caller may permit a larger
// tabulation than the cache default).
func (c *Relation) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if where != nil {
		return source.Dense(ctx, c.inner, attrs, where, budget)
	}
	src, ver := c.source()
	return c.denseAt(ctx, src, ver, attrs, budget)
}

// Prime fetches the finest dense view over attrs — one backend round trip —
// so every subsequent Counts over a subset is answered by marginalization.
// budget overrides the handle's cell budget for this closure (≤ 0 meaning
// the handle budget); closures above the effective budget are skipped
// silently (requests then fall through to the backend, which may still
// derive shared marginals itself).
func (c *Relation) Prime(ctx context.Context, attrs []string, budget int) error {
	src, ver := c.source()
	_, err := c.denseAt(ctx, src, ver, attrs, budget)
	return err
}

// Restrict implements source.Relation: the restriction is delegated to the
// backend and the resulting view wrapped in its own cache. Wrappers are
// memoized per rendered predicate, so the several phases of one analysis
// that restrict by the same WHERE clause (context splitting, balance
// testing, per-context significance) share one restricted cache — and, for
// the mem backend, one row selection.
func (c *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return c, nil
	}
	key := where.SQL()
	c.mu.Lock()
	if child, ok := c.restricts[key]; ok {
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
	child := wrap(inner, c.budget, c.account, c.tally)
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

// dropAllViews empties this cache, its result memo and every
// restricted-view cache below it, returning their cells and memo entries
// to the shared ledger. Called when a wrapper leaves its parent's
// restriction memo (eviction, append invalidation) — dropped wrappers may
// still be referenced by in-flight readers, which keep working but
// re-fetch on their next miss.
func (c *Relation) dropAllViews() {
	c.mu.Lock()
	c.views = make(map[string]*entry)
	c.wide = nil
	c.maps = nil
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
// the delta partition's counts — re-strided first when the append grew a
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
// patched are evicted and will re-fetch lazily. Sparse memos and
// restriction wrappers are dropped — their data moved — and the row-count
// memo is advanced.
func (c *Relation) applyDelta(ctx context.Context, res *source.AppendResult) {
	type pending struct {
		key string
		e   *entry
	}
	c.mu.Lock()
	todo := make([]pending, 0, len(c.views))
	for k, e := range c.views {
		if e.ver == res.Version-1 {
			todo = append(todo, pending{key: k, e: e})
		}
	}
	c.mu.Unlock()

	for _, p := range todo {
		upgraded, err := upgradeView(ctx, p.e.dc, res.Delta)
		c.mu.Lock()
		cur, ok := c.views[p.key]
		if !ok || cur != p.e {
			c.mu.Unlock()
			continue // evicted or replaced meanwhile: nothing to upgrade
		}
		if err != nil || upgraded == nil {
			c.totalCells -= len(cur.dc.Cells)
			c.account.add(-len(cur.dc.Cells))
			delete(c.views, p.key)
			c.stats.DeltaDropped++
			c.mu.Unlock()
			continue
		}
		c.totalCells += len(upgraded.Cells) - len(cur.dc.Cells)
		c.account.add(len(upgraded.Cells) - len(cur.dc.Cells))
		c.views[p.key] = &entry{dc: upgraded, ver: res.Version}
		c.stats.DeltaApplied++
		c.mu.Unlock()
	}

	c.mu.Lock()
	c.maps = nil
	c.mapsVer = res.Version
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
// delta tabulation. The cached view itself is never mutated — readers may
// hold references to it.
func upgradeView(ctx context.Context, old *dataset.DenseCounts, delta source.Relation) (*dataset.DenseCounts, error) {
	dd, err := source.Dense(ctx, delta, old.Attrs, nil, 0)
	if err != nil || dd == nil {
		return nil, err
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
// serves comes from that version (from version-matching cache entries, or
// from the pinned snapshot on a miss), so an in-flight analysis never mixes
// epochs no matter how many appends land meanwhile. Immutable backends pin
// to the cache itself.
func (c *Relation) Pin() source.Relation {
	if c.versioned == nil {
		return c
	}
	snap, ver := c.versioned.Snapshot()
	acct := &cellAccount{limit: c.budget * maxTotalCellsFactor}
	return &Pinned{c: c, snap: snap, ver: ver, account: acct, memo: newMemo(acct, c.tally)}
}

// Pinned is a snapshot-pinned read view over a shared count cache: the
// Backend identity, dictionaries, row count and every count are those of
// one version. Cache entries of the pinned version are shared with other
// readers; misses are fetched from the pinned snapshot and stored under the
// pin's version tag (never clobbering newer epochs).
type Pinned struct {
	c    *Relation
	snap source.Relation
	ver  uint64
	// account is the cell ledger of the pin's restriction children. It is
	// the pin's own, not the root's: the children die with the pin, and
	// their cells must go with them rather than stay charged to a root
	// that outlives every pin.
	account *cellAccount
	// memo keeps results computed from the pinned version's counts; it is
	// charged to the pin's ledger and dies with the pin.
	memo *Memo

	mu        sync.Mutex
	maps      map[string]map[source.Key]int
	restricts map[string]*Relation
}

// Version returns the pinned snapshot version.
func (p *Pinned) Version() uint64 { return p.ver }

// Memo returns the pin's result memo.
func (p *Pinned) Memo() *Memo { return p.memo }

// Name implements source.Relation.
func (p *Pinned) Name() string { return p.snap.Name() }

// Backend implements source.Relation: the snapshot's identity, which
// incorporates the version — statistics cached against it can never leak
// across epochs.
func (p *Pinned) Backend() string { return p.snap.Backend() }

// Attributes implements source.Relation.
func (p *Pinned) Attributes() []string { return p.snap.Attributes() }

// HasAttribute implements source.Relation.
func (p *Pinned) HasAttribute(name string) bool { return p.snap.HasAttribute(name) }

// NumRows implements source.Relation.
func (p *Pinned) NumRows(ctx context.Context) (int, error) { return p.snap.NumRows(ctx) }

// Labels implements source.Relation.
func (p *Pinned) Labels(ctx context.Context, attr string) ([]string, error) {
	return p.snap.Labels(ctx, attr)
}

// Cardinality forwards the optional capability of the snapshot.
func (p *Pinned) Cardinality(ctx context.Context, attr string) (int, error) {
	return source.Card(ctx, p.snap, attr)
}

// Counts implements source.Relation against the pinned version, sharing the
// cache's dense views where the versions match.
func (p *Pinned) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if where != nil {
		return p.snap.Counts(ctx, attrs, where)
	}
	okey := strings.Join(attrs, "\x00")
	p.mu.Lock()
	if m, ok := p.maps[okey]; ok {
		p.mu.Unlock()
		return m, nil
	}
	p.mu.Unlock()

	dc, err := p.c.denseAt(ctx, p.snap, p.ver, attrs, 0)
	if err != nil {
		return nil, err
	}
	if dc == nil {
		return p.snap.Counts(ctx, attrs, nil)
	}
	m := dc.Map()
	p.mu.Lock()
	if p.maps == nil {
		p.maps = make(map[string]map[source.Key]int)
	}
	for k := range p.maps {
		if len(p.maps) < maxMapMemos {
			break
		}
		delete(p.maps, k)
	}
	p.maps[okey] = m
	p.mu.Unlock()
	return m, nil
}

// DenseCounts implements source.DenseCounter against the pinned version.
func (p *Pinned) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if where != nil {
		return source.Dense(ctx, p.snap, attrs, where, budget)
	}
	return p.c.denseAt(ctx, p.snap, p.ver, attrs, budget)
}

// Prime fetches the finest dense view over attrs at the pinned version —
// one backend round trip against the snapshot — so subsequent unpredicated
// counts through this handle (and any other reader of the shared root
// cache at this version) are answered by marginalization. Budget semantics
// match Relation.Prime: ≤ 0 means the handle budget, and closures above
// the effective budget are skipped silently.
func (p *Pinned) Prime(ctx context.Context, attrs []string, budget int) error {
	_, err := p.c.denseAt(ctx, p.snap, p.ver, attrs, budget)
	return err
}

// Restrict implements source.Relation: restrictions are taken against the
// pinned snapshot (so they cannot race an append) and wrapped in their own
// count caches, memoized per rendered predicate for the analysis phases
// that revisit one WHERE clause.
func (p *Pinned) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return p, nil
	}
	key := where.SQL()
	p.mu.Lock()
	if child, ok := p.restricts[key]; ok {
		p.mu.Unlock()
		return child, nil
	}
	p.mu.Unlock()

	inner, err := p.snap.Restrict(ctx, where)
	if err != nil {
		return nil, err
	}
	if inner == p.snap {
		return p, nil
	}
	// Pinned restriction children share the pin's ledger: a
	// predicate-heavy audit over a pinned snapshot stays within the same
	// cell bound as the live handle's restriction tree.
	child := wrap(inner, p.c.budget, p.account, p.c.tally)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.restricts == nil {
		p.restricts = make(map[string]*Relation)
	}
	if prev, ok := p.restricts[key]; ok {
		return prev, nil
	}
	for k := range p.restricts {
		if len(p.restricts) < maxRestricts {
			break
		}
		p.restricts[k].dropAllViews()
		delete(p.restricts, k)
	}
	p.restricts[key] = child
	return child, nil
}

// Materialize forwards the snapshot's row-level capability.
func (p *Pinned) Materialize(ctx context.Context) (*dataset.Table, error) {
	return source.Materialize(ctx, p.snap)
}

// canonical returns the sorted attribute list and, for each requested
// position, its index in the sorted order.
func canonical(attrs []string) (sorted []string, pos []int) {
	sorted = append([]string(nil), attrs...)
	sort.Strings(sorted)
	pos = make([]int, len(attrs))
	for i, a := range attrs {
		for j, s := range sorted {
			if s == a {
				pos[i] = j
				// Duplicate attribute names cannot occur: source.Relation
				// schemas are duplicate-free and callers pass subsets.
				break
			}
		}
	}
	return sorted, pos
}

// denseAt returns the dense view over attrs in request order at the given
// snapshot version, or nil when the cell space exceeds the effective
// budget (budget ≤ 0 meaning the handle budget). src is the relation to
// tabulate from on a miss — the pinned snapshot whose data IS version ver,
// so entries are tagged exactly. The canonical (sorted) view is cached;
// request order is restored with one O(cells) projection. The O(cells)
// work — marginalizing a covering view, fetching from the backend — runs
// outside the handle lock (views are immutable once stored, and a racing
// duplicate computation is benign: last writer wins with identical data),
// so concurrent analyses sharing one handle only contend on map lookups.
func (c *Relation) denseAt(ctx context.Context, src source.Relation, ver uint64, attrs []string, budget int) (*dataset.DenseCounts, error) {
	effective := c.budget
	if budget > 0 {
		effective = budget
	}
	sorted, pos := canonical(attrs)
	key := strings.Join(sorted, "\x00")

	c.mu.Lock()
	var view *dataset.DenseCounts
	var stale *dataset.DenseCounts
	var chain []source.Relation
	if e, ok := c.views[key]; ok {
		if e.ver == ver {
			c.stats.Hits++
			view = e.dc
		} else if e.ver < ver {
			// An exact view a few appends behind: replay the delta chain
			// instead of re-fetching.
			if chain = c.deltaChainLocked(e.ver, ver); chain != nil {
				stale = e.dc
			}
		}
	}
	var cover *dataset.DenseCounts
	var coverKeep []int
	if view == nil && stale == nil {
		cover, coverKeep = c.findCoverLocked(sorted, ver)
	}
	c.mu.Unlock()

	if view == nil && stale != nil {
		up := stale
		for _, d := range chain {
			next, err := upgradeView(ctx, up, d)
			if err != nil || next == nil {
				up = nil
				break
			}
			up = next
		}
		if up != nil {
			c.mu.Lock()
			c.stats.DeltaApplied++
			c.storeLocked(key, up, ver)
			c.mu.Unlock()
			view = up
		} else {
			c.mu.Lock()
			c.stats.DeltaDropped++
			cover, coverKeep = c.findCoverLocked(sorted, ver)
			c.mu.Unlock()
		}
	}
	if view == nil && cover != nil {
		out, err := cover.Project(coverKeep)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Derived++
		c.storeLocked(key, out, ver)
		c.mu.Unlock()
		view = out
	}
	if view == nil {
		dc, err := source.Dense(ctx, src, sorted, nil, effective)
		if err != nil || dc == nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Fetches++
		c.storeLocked(key, dc, ver)
		c.mu.Unlock()
		view = dc
	}
	if budget > 0 && len(view.Cells) > budget {
		// An explicitly tighter budget than the view the cache holds: honor
		// the DenseCounter contract rather than returning an oversized view.
		return nil, nil
	}
	return reorder(view, attrs, pos)
}

// findCoverLocked returns the smallest covering view among the derivation
// candidates (the widest memoized views) together with the projection
// positions of the requested attributes, pruning stale candidates along
// the way. Only views of the requested version qualify — marginalizing
// across epochs would mix them. Callers hold c.mu.
func (c *Relation) findCoverLocked(sorted []string, ver uint64) (*dataset.DenseCounts, []int) {
	var (
		best     *dataset.DenseCounts
		bestKeep []int
	)
	kept := c.wide[:0]
	for _, wk := range c.wide {
		e, ok := c.views[wk]
		if !ok {
			continue // evicted; drop from the candidate list
		}
		kept = append(kept, wk)
		if e.ver != ver {
			continue
		}
		keep := coverPositions(e.dc.Attrs, sorted)
		if keep == nil {
			continue
		}
		if best == nil || len(e.dc.Cells) < len(best.Cells) {
			best, bestKeep = e.dc, keep
		}
	}
	c.wide = kept
	return best, bestKeep
}

// coverPositions returns, for each attribute of want, its position in have —
// or nil when have does not cover want.
func coverPositions(have, want []string) []int {
	if len(want) > len(have) {
		return nil
	}
	keep := make([]int, len(want))
	for i, w := range want {
		found := -1
		for j, h := range have {
			if h == w {
				found = j
				break
			}
		}
		if found < 0 {
			return nil
		}
		keep[i] = found
	}
	return keep
}

// storeLocked inserts a view tagged with its snapshot version, evicting
// arbitrary views past the tree-wide cell bound and maintaining the
// derivation-candidate list. A pinned reader re-fetching an old version
// never clobbers a newer entry for the same key: the newer epoch wins and
// the old result is simply served unstored. When even evicting this
// cache's own views and restriction children cannot make room — sibling
// caches of the tree hold the remaining ledger — the view is served
// unstored rather than blowing the bound. Callers hold c.mu.
func (c *Relation) storeLocked(key string, dc *dataset.DenseCounts, ver uint64) {
	if old, exists := c.views[key]; exists && old.ver > ver {
		return
	}
	need := len(dc.Cells)
	if old, exists := c.views[key]; exists {
		// Racing fetches of one key: replace, don't double-count.
		c.totalCells -= len(old.dc.Cells)
		c.account.add(-len(old.dc.Cells))
		delete(c.views, key)
	}
	for k, e := range c.views {
		if c.account.fits(need) {
			break
		}
		c.totalCells -= len(e.dc.Cells)
		c.account.add(-len(e.dc.Cells))
		delete(c.views, k)
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
	c.noteWideLocked(key, dc)
	c.views[key] = &entry{dc: dc, ver: ver}
	c.totalCells += need
	c.account.add(need)
}

// noteWideLocked admits key into the derivation-candidate list, displacing
// a narrower candidate when full. Callers hold c.mu.
func (c *Relation) noteWideLocked(key string, dc *dataset.DenseCounts) {
	for _, wk := range c.wide {
		if wk == key {
			return // evicted and re-fetched: already a candidate
		}
	}
	if len(c.wide) < maxWide {
		c.wide = append(c.wide, key)
		return
	}
	// Replace the candidate with the fewest attributes if the new view is
	// wider — wider views cover more subsets.
	narrowest, nAttrs := -1, len(dc.Attrs)
	for i, wk := range c.wide {
		e, ok := c.views[wk]
		if !ok {
			narrowest, nAttrs = i, -1
			break
		}
		if len(e.dc.Attrs) < nAttrs {
			narrowest, nAttrs = i, len(e.dc.Attrs)
		}
	}
	if narrowest >= 0 {
		c.wide[narrowest] = key
	}
}

// reorder projects a canonical view back into the requested attribute
// order; a request already in canonical order returns the cached view
// itself (callers must treat it as read-only).
func reorder(view *dataset.DenseCounts, attrs []string, pos []int) (*dataset.DenseCounts, error) {
	inOrder := true
	for i, p := range pos {
		if p != i {
			inOrder = false
		}
	}
	if inOrder && len(attrs) == len(view.Attrs) {
		return view, nil
	}
	return view.Project(pos)
}

var (
	_ source.Relation     = (*Relation)(nil)
	_ source.DenseCounter = (*Relation)(nil)
	_ source.Closer       = (*Relation)(nil)
	_ source.Materializer = (*Relation)(nil)
	_ source.Appender     = (*Relation)(nil)
	_ source.Relation     = (*Pinned)(nil)
	_ source.DenseCounter = (*Pinned)(nil)
	_ source.Materializer = (*Pinned)(nil)
)
