// Package sharded implements HypDB's partition-parallel storage backend: a
// source.Relation that owns N child relations (horizontal partitions) and
// serves group-by counts by fanning the same dictionary-coded request to
// every shard concurrently, then merging the shards' additive cell counts.
//
// The merge is sound because the dense sufficient statistic is additive
// across row partitions (internal/dataset): counts over a union of disjoint
// row sets are the element-wise sum of the per-partition tabulations —
// provided every partition is coded in one global dictionary. Each child
// keeps its own compact per-shard dictionaries; the shard coordinator
// reconciles them into a single global coding at admission time (a
// local-code → global-code remap table per shard), so merged cells index
// consistently no matter how labels are distributed across shards.
//
// On top of the fan-out the package adds streaming ingestion with versioned
// snapshots. Partitions are immutable: Append never mutates an existing
// child. It admits the appended rows as a new delta partition, merges the
// newest deltas size-tiered (a delta absorbs the newer one while it holds
// no more rows), and bumps the relation's version; with equal batches, k
// appends leave popcount(k) deltas. A snapshot is therefore nothing more
// than a pinned partition list plus pinned dictionary lengths — readers
// holding one are completely isolated from concurrent appends, and caching
// layers (internal/countcache) tag entries with the version so no analysis
// mixes epochs. The AppendResult hands back a counts view over just the
// appended batch, which is exactly the additive patch a primed cache needs
// to upgrade its views without a full re-tabulation.
//
// Children are plain source.Relations: the local goroutine shards used here
// wrap source/mem tables, but any conforming relation — including
// source/remote's client relation, which speaks the counts endpoint of a
// hypdbd peer — slots into New without changes to the fan-out or the
// coordinator. For remote children the coordinator can additionally enable
// degraded reads (SetDegradedReads): a child failing as an unreachable peer
// is then skipped instead of failing the read, and DegradedServes exposes
// how often that happened so results can be marked stale.
package sharded

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/pool"
	"hypdb/source"
	"hypdb/source/mem"
)

// Relation is the live, appendable root of a sharded dataset. All reads go
// through an immutable snapshot (View) of the current version, so they are
// safe to run concurrently with Append.
type Relation struct {
	name   string
	base   string // backend identity prefix, version-independent
	attrs  []string
	byName map[string]int

	mu   sync.RWMutex
	dict *dict
	cur  *View // snapshot of the current version, rebuilt on Append

	deg *degradeState // shared with every View derived from this relation
}

// degradeState is the degraded-reads switch shared by a relation and all
// its views: when allow is set, a child failing with
// hyperr.ErrPeerUnavailable is skipped instead of failing the fan-out, and
// serves counts how many reads were answered with at least one child
// missing — the coordinator's staleness signal.
type degradeState struct {
	allow  atomic.Bool
	serves atomic.Int64
	// bump advances the owning relation's snapshot version (set at
	// construction). Every skip calls it, so counts tabulated while a child
	// was missing are tagged with an epoch no later read resolves to:
	// caching layers keyed by version (internal/countcache) can never serve
	// a partial view to an analysis that starts after the skip — or keep
	// serving it once the peer has recovered.
	bump func()
}

// View is one immutable version of a sharded relation: a pinned partition
// list with pinned global dictionary lengths. Snapshots and restrictions
// are Views; the root Relation delegates every read to its current one.
type View struct {
	name    string
	backend string
	attrs   []string
	byName  map[string]int
	labels  [][]string // global dictionary per attribute, frozen length
	parts   []*partition
	rows    int
	ver     uint64
	deg     *degradeState // shared with the root Relation; may be nil
	root    *Relation     // whose dictionary holds every label of the view
}

// partition is one immutable horizontal slice: a child relation plus the
// remap tables translating its local dictionary codes into global codes.
type partition struct {
	rel   source.Relation
	remap [][]int32 // schema-order attribute -> local code -> global code
	rows  int
	// tab is the rows of a delta partition, which Append created and may
	// merge with its neighbour; nil for the shards New and Partition admit.
	tab *dataset.Table
}

// dict is the shard coordinator's mutable state: the global dictionaries
// (append-only — admitting a shard or a delta may extend them, never
// reorder them, so codes captured by older snapshots stay valid).
type dict struct {
	labels [][]string
	index  []map[string]int32
}

func newDict(attrs []string) *dict {
	d := &dict{
		labels: make([][]string, len(attrs)),
		index:  make([]map[string]int32, len(attrs)),
	}
	for i := range attrs {
		d.index[i] = make(map[string]int32)
	}
	return d
}

// seed pre-populates attribute i's global dictionary, fixing the code of
// every listed label before any shard is admitted.
func (d *dict) seed(i int, labels []string) {
	for _, l := range labels {
		if _, ok := d.index[i][l]; !ok {
			d.index[i][l] = int32(len(d.labels[i]))
			d.labels[i] = append(d.labels[i], l)
		}
	}
}

// admit registers one child relation: unseen labels extend the global
// dictionaries (first-seen in shard order), and the child's remap tables
// are built so its counts can be recoded into the global space.
func (d *dict) admit(ctx context.Context, rel source.Relation, attrs []string) (*partition, error) {
	p := &partition{rel: rel, remap: make([][]int32, len(attrs))}
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	p.rows = n
	for i, a := range attrs {
		local, err := rel.Labels(ctx, a)
		if err != nil {
			return nil, err
		}
		rm := make([]int32, len(local))
		for c, l := range local {
			g, ok := d.index[i][l]
			if !ok {
				g = int32(len(d.labels[i]))
				d.index[i][l] = g
				d.labels[i] = append(d.labels[i], l)
			}
			rm[c] = g
		}
		p.remap[i] = rm
	}
	return p, nil
}

// New builds a sharded relation over the given children, which must all
// expose the same attributes in the same order. The global dictionaries are
// built by admitting the shards in order (first-seen label wins the lower
// code), so the coding is deterministic for a fixed shard list.
func New(ctx context.Context, name string, shards []source.Relation) (*Relation, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sharded: relation %q needs at least one shard", name)
	}
	attrs := append([]string(nil), shards[0].Attributes()...)
	for _, s := range shards[1:] {
		got := s.Attributes()
		if len(got) != len(attrs) {
			return nil, fmt.Errorf("sharded: shard %q has %d attributes, shard %q has %d",
				s.Name(), len(got), shards[0].Name(), len(attrs))
		}
		for i := range attrs {
			if got[i] != attrs[i] {
				return nil, fmt.Errorf("sharded: shard schemas disagree at position %d: %q vs %q",
					i, got[i], attrs[i])
			}
		}
	}
	r := &Relation{name: name, attrs: attrs, byName: indexAttrs(attrs), dict: newDict(attrs), deg: &degradeState{}}
	r.base = fmt.Sprintf("sharded:%p", r)
	r.deg.bump = r.bumpVersion
	parts := make([]*partition, 0, len(shards))
	for _, s := range shards {
		p, err := r.dict.admit(ctx, s, attrs)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	r.cur = r.buildViewLocked(parts, 1)
	return r, nil
}

// Partition splits an in-memory table into n contiguous row-range shards
// and returns the sharded relation over them. The global dictionaries are
// seeded from the table's own, so the relation's coding — and therefore
// every Counts result — is identical to the mem backend's over the same
// table. n is clamped to [1, rows].
func Partition(t *dataset.Table, name string, n int) (*Relation, error) {
	rows := t.NumRows()
	if n < 1 {
		n = 1
	}
	if rows > 0 && n > rows {
		n = rows
	}
	attrs := t.Columns()
	r := &Relation{name: name, attrs: attrs, byName: indexAttrs(attrs), dict: newDict(attrs), deg: &degradeState{}}
	r.base = fmt.Sprintf("sharded:%p", r)
	r.deg.bump = r.bumpVersion
	for i, a := range attrs {
		c, err := t.Column(a)
		if err != nil {
			return nil, err
		}
		r.dict.seed(i, c.Labels())
	}
	parts := make([]*partition, 0, n)
	ctx := context.Background()
	for s := 0; s < n; s++ {
		lo, hi := rows*s/n, rows*(s+1)/n
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		sub, err := t.SelectRows(idx)
		if err != nil {
			return nil, err
		}
		p, err := r.dict.admit(ctx, mem.NewNamed(sub, name), attrs)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	r.cur = r.buildViewLocked(parts, 1)
	return r, nil
}

func indexAttrs(attrs []string) map[string]int {
	m := make(map[string]int, len(attrs))
	for i, a := range attrs {
		m[a] = i
	}
	return m
}

// buildViewLocked captures the current dictionary lengths and the given
// partition list as one immutable View. Callers hold r.mu (or have
// exclusive access during construction).
func (r *Relation) buildViewLocked(parts []*partition, ver uint64) *View {
	labels := make([][]string, len(r.attrs))
	rows := 0
	for i := range r.attrs {
		labels[i] = r.dict.labels[i] // header copy: length frozen here
	}
	for _, p := range parts {
		rows += p.rows
	}
	return &View{
		name:    r.name,
		backend: fmt.Sprintf("%s@v%d", r.base, ver),
		attrs:   r.attrs,
		byName:  r.byName,
		labels:  labels,
		parts:   parts,
		rows:    rows,
		ver:     ver,
		deg:     r.deg,
		root:    r,
	}
}

// Snapshot implements source.Versioned: the returned View is immune to
// concurrent appends.
func (r *Relation) Snapshot() (source.Relation, uint64) {
	v := r.snap()
	return v, v.ver
}

// snap returns the current version's View.
func (r *Relation) snap() *View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur
}

// SnapshotVersion implements source.Versioned.
func (r *Relation) SnapshotVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur.ver
}

// SetDegradedReads switches degraded reads on or off for this relation and
// every view derived from it (including already-pinned snapshots). With
// degraded reads on, a child that fails with hyperr.ErrPeerUnavailable —
// a remote shard that is down — is skipped and the surviving shards answer
// alone; DegradedServes counts such reads so callers can mark the results
// stale. Off (the default) the first unreachable child fails the whole
// read. Version-skew failures (hyperr.ErrVersionSkew) are never degraded
// away: a peer serving a different epoch must fail the read regardless.
func (r *Relation) SetDegradedReads(on bool) { r.deg.allow.Store(on) }

// DegradedReads reports whether degraded reads are enabled.
func (r *Relation) DegradedReads() bool { return r.deg.allow.Load() }

// DegradedServes returns how many times a child has been skipped by a
// degraded read (counts calls, restrictions) since the relation was built.
// A caller comparing the counter before and after an analysis knows
// whether that analysis may rest on partial counts.
func (r *Relation) DegradedServes() uint64 { return uint64(r.deg.serves.Load()) }

// bumpVersion advances the relation's snapshot version without changing its
// data: the current partition list is re-captured as a new View one version
// up (with the backend identity string moving along). Degraded serves call
// it on every skip, so any count tabulated with a child missing carries a
// version tag strictly older than every snapshot pinned afterwards —
// version-keyed caches treat the partial results as a dead epoch instead of
// answering later analyses from them (which would dodge the staleness
// marking, and would outlive the peer's recovery).
func (r *Relation) bumpVersion() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur = r.buildViewLocked(r.cur.parts, r.cur.ver+1)
}

// Children returns the current snapshot's child relations in shard order
// (initial shards first, then the merged append deltas, oldest first).
// Callers must not mutate the children; the slice itself is fresh.
func (r *Relation) Children() []source.Relation {
	parts := r.snap().parts
	out := make([]source.Relation, len(parts))
	for i, p := range parts {
		out[i] = p.rel
	}
	return out
}

// NumPartitions returns the current partition count: the initial shards
// plus the delta partitions left by Append's merging, popcount(k) after k
// appends of equal size.
func (r *Relation) NumPartitions() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cur.parts)
}

// Append implements source.Appender: the rows (label values in schema
// order) become one new immutable delta partition, unseen labels extend the
// global dictionaries, and the version is bumped. Readers holding an older
// snapshot are unaffected. The result's Delta relation serves counts over
// exactly the appended rows in the global coding, for cache patching. An
// empty batch is a no-op that keeps the current version.
//
// Then, while the delta before the newest holds no more rows than the
// newest, the two are replaced by one delta holding their rows in order.
// Delta row counts therefore strictly decrease from oldest to newest: k
// appends of equal size leave popcount(k) deltas, and each of their rows
// is copied O(log k) times. Shards admitted by New or Partition never
// merge. The rows keep their order, so counts, Materialize and restricted
// codings are those of the unmerged partitions.
func (r *Relation) Append(ctx context.Context, rows [][]string) (*source.AppendResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != len(r.attrs) {
			return nil, fmt.Errorf("sharded: append row %d has %d values, schema has %d attributes",
				i, len(row), len(r.attrs))
		}
	}
	if len(rows) == 0 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return &source.AppendResult{NumRows: r.cur.rows, Version: r.cur.ver}, nil
	}
	b := dataset.NewBuilder(r.attrs...)
	for _, row := range rows {
		if err := b.Add(row...); err != nil {
			return nil, err
		}
	}
	tab, err := b.Table()
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	p, err := r.dict.admit(ctx, mem.NewNamed(tab, r.name), r.attrs)
	if err != nil {
		return nil, err
	}
	p.tab = tab
	// Copy-on-append: snapshots hold the old slice, which must never be
	// extended in place underneath them.
	parts := make([]*partition, 0, len(r.cur.parts)+1)
	parts = append(parts, r.cur.parts...)
	parts = append(parts, p)
	for n := len(parts); n > 1 && parts[n-2].tab != nil && parts[n-2].rows <= parts[n-1].rows; n-- {
		if parts[n-2], err = r.mergeDeltas(parts[n-2], parts[n-1]); err != nil {
			return nil, err
		}
		parts = parts[:n-1]
	}
	ver := r.cur.ver + 1
	r.cur = r.buildViewLocked(parts, ver)

	delta := r.buildViewLocked([]*partition{p}, ver)
	delta.backend += "|delta"
	return &source.AppendResult{
		Appended: len(rows),
		NumRows:  r.cur.rows,
		Version:  ver,
		Delta:    delta,
	}, nil
}

// mergeDeltas returns one delta partition holding a's rows, then b's. Each
// column's dictionary is a's, then b's labels a lacks in b's code order:
// both are first-seen dictionaries of their rows, so the result is the
// first-seen dictionary of the concatenated rows. b's labels are looked up
// in a's dictionary by global code, not by string. Callers hold r.mu.
func (r *Relation) mergeDeltas(a, b *partition) (*partition, error) {
	cols := make([]*dataset.Column, len(r.attrs))
	m := &partition{remap: make([][]int32, len(r.attrs)), rows: a.rows + b.rows}
	for i, name := range r.attrs {
		ac, err := a.tab.Column(name)
		if err != nil {
			return nil, err
		}
		bc, err := b.tab.Column(name)
		if err != nil {
			return nil, err
		}
		// local holds the merged code + 1 of each global code a or b uses.
		local := make([]int32, len(r.dict.labels[i]))
		for c, g := range a.remap[i] {
			local[g] = int32(c) + 1
		}
		n, most := len(a.remap[i]), len(a.remap[i])+len(b.remap[i])
		labels := make([]string, n, most)
		copy(labels, ac.Labels())
		remap := make([]int32, n, most)
		copy(remap, a.remap[i])
		to := make([]int32, len(b.remap[i])) // b code -> merged code
		for c, g := range b.remap[i] {
			if local[g] == 0 {
				labels = append(labels, bc.Label(int32(c)))
				remap = append(remap, g)
				local[g] = int32(len(labels))
			}
			to[c] = local[g] - 1
		}
		codes := make([]int32, m.rows)
		copy(codes, ac.Codes())
		for j, c := range bc.Codes() {
			codes[a.rows+j] = to[c]
		}
		if cols[i], err = dataset.NewColumnFromCodes(name, codes, labels); err != nil {
			return nil, err
		}
		m.remap[i] = remap
	}
	tab, err := dataset.New(cols...)
	if err != nil {
		return nil, err
	}
	m.rel, m.tab = mem.NewNamed(tab, r.name), tab
	return m, nil
}

// Close releases every child shard that holds external resources.
func (r *Relation) Close() error {
	parts := r.snap().parts
	var first error
	for _, p := range parts {
		if cl, ok := p.rel.(source.Closer); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// The root delegates every read to the current snapshot.

// Name implements source.Relation.
func (r *Relation) Name() string { return r.name }

// Backend implements source.Relation. The identity incorporates the current
// version, so statistics cached against it are never shared across epochs.
func (r *Relation) Backend() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur.backend
}

// Attributes implements source.Relation.
func (r *Relation) Attributes() []string { return r.attrs }

// HasAttribute implements source.Relation.
func (r *Relation) HasAttribute(name string) bool { _, ok := r.byName[name]; return ok }

// NumRows implements source.Relation.
func (r *Relation) NumRows(ctx context.Context) (int, error) {
	return r.snap().NumRows(ctx)
}

// Labels implements source.Relation.
func (r *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	return r.snap().Labels(ctx, attr)
}

// Cardinality implements the optional distinct-count capability.
func (r *Relation) Cardinality(ctx context.Context, attr string) (int, error) {
	return r.snap().Cardinality(ctx, attr)
}

// Counts implements source.Relation by fanning out over the current
// snapshot's partitions.
func (r *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	return r.snap().Counts(ctx, attrs, where)
}

// DenseCounts implements source.DenseCounter.
func (r *Relation) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	return r.snap().DenseCounts(ctx, attrs, where, budget)
}

// Restrict implements source.Relation.
func (r *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return r, nil
	}
	return r.snap().Restrict(ctx, where)
}

// Materialize implements source.Materializer when every child does.
func (r *Relation) Materialize(ctx context.Context) (*dataset.Table, error) {
	return r.snap().Materialize(ctx)
}

// ---------------------------------------------------------------------------
// View: the immutable read path

// Name implements source.Relation.
func (v *View) Name() string { return v.name }

// Backend implements source.Relation.
func (v *View) Backend() string { return v.backend }

// Attributes implements source.Relation.
func (v *View) Attributes() []string { return v.attrs }

// HasAttribute implements source.Relation.
func (v *View) HasAttribute(name string) bool { _, ok := v.byName[name]; return ok }

// Version returns the snapshot version this view was pinned at.
func (v *View) Version() uint64 { return v.ver }

// NumRows implements source.Relation.
func (v *View) NumRows(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return v.rows, nil
}

// Labels implements source.Relation: the global dictionary of attr, frozen
// at this view's version.
func (v *View) Labels(ctx context.Context, attr string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	i, ok := v.byName[attr]
	if !ok {
		return nil, fmt.Errorf("sharded: relation %q has no attribute %q: %w", v.name, attr, hyperr.ErrUnknownAttribute)
	}
	return v.labels[i], nil
}

// Cardinality implements the optional distinct-count capability.
func (v *View) Cardinality(ctx context.Context, attr string) (int, error) {
	l, err := v.Labels(ctx, attr)
	if err != nil {
		return 0, err
	}
	return len(l), nil
}

// Counts implements source.Relation: every shard's cells, recoded into one
// global map.
func (v *View) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if err := source.CheckAttrs(v, attrs...); err != nil {
		return nil, err
	}
	out := make(map[source.Key]int)
	global := make([]int32, len(attrs))
	err := v.merge(ctx, attrs, where, func(local *dataset.DenseCounts, rm [][]int32) {
		local.EachCell(func(codes []int32, c int) {
			for i, code := range codes {
				global[i] = rm[i][code]
			}
			out[dataset.EncodeKey(global...)] += c
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DenseCounts implements source.DenseCounter: when the global cell space
// fits the budget, every shard's cells are added at their global index in
// one dense view.
func (v *View) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if err := source.CheckAttrs(v, attrs...); err != nil {
		return nil, err
	}
	cards := make([]int, len(attrs))
	for i, a := range attrs {
		cards[i] = len(v.labels[v.byName[a]])
	}
	if _, ok := dataset.DenseSize(cards, dataset.EffectiveBudget(budget, v.rows)); !ok {
		return nil, nil
	}
	out, err := dataset.NewDenseCounts(attrs, cards)
	if err != nil {
		return nil, err
	}
	strides := make([]int, len(attrs))
	s := 1
	for i, c := range cards {
		strides[i] = s
		s *= c
	}
	err = v.merge(ctx, attrs, where, func(local *dataset.DenseCounts, rm [][]int32) {
		local.EachCell(func(codes []int32, c int) {
			idx := 0
			for i, code := range codes {
				idx += strides[i] * int(rm[i][code])
			}
			out.Cells[idx] += c
		})
		out.Total += local.Total
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// merge reads every partition's counts over attrs under where — dense or
// sparse, through source.TabulateWhere — on the shared worker pool, and
// hands each shard's view to add, one shard at a time, together with the
// remap tables from the shard's codes of attrs to global codes. The first
// error cancels the remaining reads, except that with degraded reads
// enabled a partition failing as an unreachable peer is skipped: its
// contribution is simply missing from the merge.
func (v *View) merge(ctx context.Context, attrs []string, where source.Predicate, add func(local *dataset.DenseCounts, rm [][]int32)) error {
	var mu sync.Mutex
	return pool.Run(ctx, len(v.parts), 0, func(ctx context.Context, i int) error {
		p := v.parts[i]
		local, err := source.TabulateWhere(ctx, p.rel, attrs, where)
		if err != nil {
			if v.skipChild(ctx, err) {
				return nil
			}
			return err
		}
		rm := make([][]int32, len(attrs))
		for i, a := range attrs {
			rm[i] = p.remap[v.byName[a]]
		}
		mu.Lock()
		defer mu.Unlock()
		add(local, rm)
		return nil
	})
}

// skipChild reports whether a child's failure should be absorbed by
// degraded reads: the switch is on, the error is a lost peer (never a
// version skew — that wraps a different sentinel — and never a
// cancellation), and the read's context is still live. A true return has
// already recorded the degraded serve and advanced the relation's snapshot
// version, so the partial result being assembled is tagged with a version
// (captured before the fan-out) that no read starting after the skip
// resolves to — partial counts die with their epoch rather than being
// cached as complete.
func (v *View) skipChild(ctx context.Context, err error) bool {
	if v.deg == nil || !v.deg.allow.Load() {
		return false
	}
	if ctx.Err() != nil || !errors.Is(err, hyperr.ErrPeerUnavailable) {
		return false
	}
	v.deg.serves.Add(1)
	if v.deg.bump != nil {
		v.deg.bump()
	}
	return true
}

// Restrict implements source.Relation: every child is restricted (with its
// own compacted dictionaries) and the surviving labels are recoded first-seen
// in shard order. For contiguous row-range partitions that makes the
// restricted coding identical to the mem backend's first-seen compaction
// over the same selection.
//
// Every label of a derived view is in the root relation's append-only
// dictionary, so a restricted child's labels are looked up in the root's
// index, under its read lock, and given restricted codes through a slice
// indexed by root code; no label map is built.
func (v *View) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return v, nil
	}
	parts := make([]*partition, 0, len(v.parts))
	local := make([][][]string, 0, len(v.parts)) // per part: attribute -> labels
	rows := 0
	for _, p := range v.parts {
		child, err := p.rel.Restrict(ctx, where)
		if err != nil {
			if v.skipChild(ctx, err) {
				continue // degraded: the lost peer's rows drop out of the view
			}
			return nil, err
		}
		n, ls, err := childLabels(ctx, child, v.attrs)
		if err != nil {
			if v.skipChild(ctx, err) {
				continue
			}
			return nil, err
		}
		parts = append(parts, &partition{rel: child, rows: n})
		local = append(local, ls)
		rows += n
	}
	labels, err := v.root.recode(local, parts)
	if err != nil {
		return nil, err
	}
	return &View{
		name:    v.name,
		backend: fmt.Sprintf("%s|σ:%s", v.backend, where.SQL()),
		attrs:   v.attrs,
		byName:  v.byName,
		labels:  labels,
		parts:   parts,
		rows:    rows,
		ver:     v.ver,
		deg:     v.deg,
		root:    v.root,
	}, nil
}

// childLabels reads a child's row count and its dictionary of every
// attribute, for recode.
func childLabels(ctx context.Context, rel source.Relation, attrs []string) (int, [][]string, error) {
	n, err := rel.NumRows(ctx)
	if err != nil {
		return 0, nil, err
	}
	local := make([][]string, len(attrs))
	for i, a := range attrs {
		if local[i], err = rel.Labels(ctx, a); err != nil {
			return 0, nil, err
		}
	}
	return n, local, nil
}

// recode codes restricted children, given their local dictionaries in
// shard order: each label's root code indexes a slot, and a label not seen
// in an earlier child or earlier in its own dictionary takes the next
// restricted code. It sets every part's remap tables and returns the
// restricted dictionaries, each allocated once at its final length. It
// holds r's read lock around the lookups only.
func (r *Relation) recode(local [][][]string, parts []*partition) ([][]string, error) {
	for k, p := range parts {
		size := 0
		for _, ls := range local[k] {
			size += len(ls)
		}
		buf := make([]int32, size)
		p.remap = make([][]int32, len(r.attrs))
		for i, ls := range local[k] {
			p.remap[i], buf = buf[:len(ls):len(ls)], buf[len(ls):]
		}
	}
	labels := make([][]string, len(r.attrs))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.attrs {
		index := r.dict.index[i]
		slot := make([]int32, len(r.dict.labels[i])) // restricted code + 1 by root code; 0 until seen
		n := int32(0)
		for k, p := range parts {
			rm := p.remap[i]
			for c, l := range local[k][i] {
				g, ok := index[l]
				if !ok {
					return nil, fmt.Errorf("sharded: relation %q: label %q of attribute %q is not in its dictionary", r.name, l, r.attrs[i])
				}
				if slot[g] == 0 {
					n++
					slot[g] = n
				}
				rm[c] = slot[g] - 1
			}
		}
		if n == 0 {
			continue
		}
		labels[i] = make([]string, n)
		for g, code := range slot {
			if code != 0 {
				labels[i][code-1] = r.dict.labels[i][g]
			}
		}
	}
	return labels, nil
}

// Materialize implements source.Materializer when every child does: the
// partitions' rows are concatenated in shard order under the global
// dictionaries. For a relation built by Partition, that reproduces the
// original table's row order and coding exactly.
func (v *View) Materialize(ctx context.Context) (*dataset.Table, error) {
	cols := make([]*dataset.Column, len(v.attrs))
	codes := make([][]int32, len(v.attrs))
	for i := range v.attrs {
		codes[i] = make([]int32, 0, v.rows)
	}
	for _, p := range v.parts {
		tab, err := source.Materialize(ctx, p.rel)
		if err != nil {
			return nil, err
		}
		for i, a := range v.attrs {
			c, err := tab.Column(a)
			if err != nil {
				return nil, err
			}
			rm := p.remap[i]
			for _, lc := range c.Codes() {
				codes[i] = append(codes[i], rm[lc])
			}
		}
	}
	for i, a := range v.attrs {
		c, err := dataset.NewColumnFromCodes(a, codes[i], v.labels[i])
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return dataset.New(cols...)
}

var (
	_ source.Relation     = (*Relation)(nil)
	_ source.DenseCounter = (*Relation)(nil)
	_ source.Materializer = (*Relation)(nil)
	_ source.Appender     = (*Relation)(nil)
	_ source.Versioned    = (*Relation)(nil)
	_ source.Closer       = (*Relation)(nil)
	_ source.Relation     = (*View)(nil)
	_ source.DenseCounter = (*View)(nil)
	_ source.Materializer = (*View)(nil)
)
