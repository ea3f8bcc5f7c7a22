package countcache

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sharded"
)

func shardedFixture(t *testing.T) *sharded.Relation {
	t.Helper()
	b := dataset.NewBuilder("G", "O")
	for _, r := range [][2]string{
		{"a", "0"}, {"a", "1"}, {"b", "0"}, {"b", "1"}, {"a", "0"}, {"b", "1"},
	} {
		b.MustAdd(r[0], r[1])
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sharded.Partition(tab, "D", 2)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func sum(m map[source.Key]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// TestDeltaApplicationKeepsCachePrimed is the delta-application contract:
// after an append, the next query must be served from the upgraded views —
// zero new backend fetches — and must include the appended rows.
func TestDeltaApplicationKeepsCachePrimed(t *testing.T) {
	ctx := context.Background()
	c := Wrap(shardedFixture(t), 0)

	if err := c.Prime(ctx, []string{"G", "O"}, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Fetches != 1 {
		t.Fatalf("after prime: %+v, want 1 fetch", st)
	}

	res, err := c.Append(ctx, [][]string{{"a", "1"}, {"b", "0"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Appended != 2 {
		t.Fatalf("append result %+v, want version 2, 2 rows", res)
	}
	st := c.Stats()
	if st.DeltaApplied == 0 || st.DeltaDropped != 0 {
		t.Fatalf("after append: %+v, want the primed view delta-applied", st)
	}

	// The next query is answered by the upgraded view: no new fetch.
	before := c.Stats().Fetches
	counts, err := c.Counts(ctx, []string{"G", "O"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(counts); got != 8 {
		t.Fatalf("post-append counts sum to %d, want 8", got)
	}
	if after := c.Stats().Fetches; after != before {
		t.Fatalf("post-append query re-fetched (%d -> %d); want delta-served", before, after)
	}
	// Subset marginals derive from the upgraded view, still fetch-free.
	gOnly, err := c.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(gOnly); got != 8 {
		t.Fatalf("marginal sums to %d, want 8", got)
	}
	if after := c.Stats().Fetches; after != before {
		t.Fatalf("marginal re-fetched (%d -> %d)", before, after)
	}
	if n, err := c.NumRows(ctx); err != nil || n != 8 {
		t.Fatalf("NumRows = %d, %v, want 8", n, err)
	}
}

// TestDeltaApplicationGrowsDictionaries: an append introducing unseen
// labels re-strides the cached views to the grown cardinalities.
func TestDeltaApplicationGrowsDictionaries(t *testing.T) {
	ctx := context.Background()
	c := Wrap(shardedFixture(t), 0)
	if err := c.Prime(ctx, []string{"G", "O"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, [][]string{{"zzz", "1"}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaApplied == 0 {
		t.Fatalf("grown append not delta-applied: %+v", st)
	}
	before := c.Stats().Fetches
	dc, err := c.DenseCounts(ctx, []string{"G", "O"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Total != 7 || dc.Cards[0] != 3 {
		t.Fatalf("grown view total %d cards %v, want 7 and G-card 3", dc.Total, dc.Cards)
	}
	if after := c.Stats().Fetches; after != before {
		t.Fatal("grown view was re-fetched instead of delta-applied")
	}
	checkIndex(t, c)
}

// TestPinIsolatesInFlightReaders: a reader pinned before an append keeps
// observing its version for counts, dictionaries and row counts, while the
// live handle moves on.
func TestPinIsolatesInFlightReaders(t *testing.T) {
	ctx := context.Background()
	c := Wrap(shardedFixture(t), 0)
	if err := c.Prime(ctx, []string{"G", "O"}, 0); err != nil {
		t.Fatal(err)
	}

	if v := c.Version(); v != 0 {
		t.Fatalf("unpinned cache reports version %d, want 0", v)
	}
	pin := c.Pin()
	if pin == c || pin.Version() != 1 {
		t.Fatalf("Pin over a versioned backend returned the cache or version %d, want a pin at 1", pin.Version())
	}
	// A pin is read-only: appending through it fails without moving the
	// root, and closing it leaves the root readable.
	if _, err := pin.Append(ctx, [][]string{{"a", "0"}}); !errors.Is(err, hyperr.ErrNotAppendable) {
		t.Fatalf("append through a pin: err = %v, want ErrNotAppendable", err)
	}
	if v := c.Pin().Version(); v != 1 {
		t.Fatalf("append through a pin moved the root to version %d", v)
	}
	if err := pin.Close(); err != nil {
		t.Fatalf("closing a pin: %v", err)
	}
	if m, err := c.Counts(ctx, []string{"G"}, nil); err != nil || sum(m) != 6 {
		t.Fatalf("root after closing a pin: counts %v, err %v; want 6 rows", m, err)
	}

	if _, err := c.Append(ctx, [][]string{{"c", "0"}, {"c", "1"}, {"c", "0"}}); err != nil {
		t.Fatal(err)
	}

	// The pin still answers from version 1: 6 rows, two G labels.
	m, err := pin.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(m); got != 6 {
		t.Fatalf("pinned counts sum to %d, want 6", got)
	}
	if l, _ := pin.Labels(ctx, "G"); len(l) != 2 {
		t.Fatalf("pinned dict = %v, want 2 labels", l)
	}
	if n, _ := pin.NumRows(ctx); n != 6 {
		t.Fatalf("pinned rows = %d, want 6", n)
	}
	// Restriction through the pin stays in the pinned epoch.
	view, err := pin.Restrict(ctx, dataset.Eq{Attr: "O", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := view.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(rm); got != 3 {
		t.Fatalf("pinned restricted counts sum to %d, want 3", got)
	}

	// Meanwhile a fresh pin sees the new epoch.
	m2, err := c.Pin().Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(m2); got != 9 {
		t.Fatalf("live counts sum to %d, want 9", got)
	}

	// An immutable backend pins to the shared cache itself.
	mc := Wrap(mem.New(mustTable(t)), 0)
	if mc.Pin() != mc || mc.Version() != 0 {
		t.Error("Pin over an immutable backend should return the cache")
	}
}

// TestDroppedPinsReleaseRestrictionCells: the restriction caches a pin
// hands out die with the pin, and so must their cells. Were they charged to
// the root's ledger, a stream of short-lived pins would fill it for good
// and the root would stop storing views.
func TestDroppedPinsReleaseRestrictionCells(t *testing.T) {
	ctx := context.Background()
	c := Wrap(shardedFixture(t), 4) // a 16-cell ledger
	for i := 0; i < 20; i++ {
		view, err := c.Pin().Restrict(ctx, dataset.Eq{Attr: "G", Value: "a"})
		if err != nil {
			t.Fatal(err)
		}
		for _, attrs := range [][]string{{"O"}, {"G", "O"}} {
			if _, err := view.Counts(ctx, attrs, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.TotalCachedCells(); got != 0 {
		t.Fatalf("root ledger holds %d cells of dropped pins' restrictions, want 0", got)
	}
	if err := c.Prime(ctx, []string{"G", "O"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalCachedCells(); got != 4 {
		t.Fatalf("root ledger holds %d cells after priming {G,O}, want 4", got)
	}
	before := c.Stats().Fetches
	if _, err := c.Counts(ctx, []string{"G", "O"}, nil); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats().Fetches; after != before {
		t.Errorf("primed view was not stored: Counts re-fetched (%d -> %d)", before, after)
	}
}

func mustTable(t *testing.T) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("A")
	b.MustAdd("x")
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestAppendThroughImmutableBackend: appends against non-growing backends
// fail loudly with the sentinel.
func TestAppendThroughImmutableBackend(t *testing.T) {
	c := Wrap(mem.New(mustTable(t)), 0)
	if _, err := c.Append(context.Background(), [][]string{{"y"}}); !errors.Is(err, hyperr.ErrNotAppendable) {
		t.Fatalf("append on mem backend: err = %v, want ErrNotAppendable", err)
	}
}

// TestDeltaApplicationKeepsWideViews: an append keeps a cached view wider
// than a dense tabulation of the delta's few rows would allow (4,096 cells
// for a 2-row delta). The delta is read in the sparse form, so the view is
// upgraded in place rather than evicted and re-fetched.
func TestDeltaApplicationKeepsWideViews(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("A", "B")
	for i := 0; i < 140; i++ {
		b.MustAdd("a"+strconv.Itoa(i%70), "b"+strconv.Itoa((i/2)%70))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sharded.Partition(tab, "D", 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Wrap(sh, 0)
	attrs := []string{"A", "B"}
	if err := c.Prime(ctx, attrs, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalCachedCells(); got != 70*70 {
		t.Fatalf("primed %d cells, want the 4,900-cell {A,B} view", got)
	}
	// One row with a new A label, so the view also grows.
	if _, err := c.Append(ctx, [][]string{{"a3", "b5"}, {"new", "b0"}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DeltaApplied != 1 || st.DeltaDropped != 0 {
		t.Fatalf("after append: %+v, want the wide view delta-applied", st)
	}
	got, err := c.Counts(ctx, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := c.Stats().Fetches; after != st.Fetches {
		t.Fatalf("post-append query re-fetched (%d -> %d); want delta-served", st.Fetches, after)
	}
	snap, _ := sh.Snapshot()
	want, err := source.Tabulate(ctx, snap, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Map()) {
		t.Fatal("delta-applied counts differ from a fresh tabulation")
	}
	checkIndex(t, c)
}

// TestRestrictMemoBounded: the restriction memo of a root and of a pin
// keeps at most maxRestricts wrappers, and the views of an evicted wrapper
// leave the ledger they were charged to — the root's for its own
// restrictions, the pin's for the pin's.
func TestRestrictMemoBounded(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("X", "O")
	for i := 0; i <= maxRestricts; i++ {
		b.MustAdd("x"+strconv.Itoa(i), strconv.Itoa(i%2))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sharded.Partition(tab, "D", 2)
	if err != nil {
		t.Fatal(err)
	}
	root := Wrap(sh, 0)
	pin := root.Pin()
	rootCells := 0
	for _, view := range []*Relation{root, pin} {
		for i := 0; i <= maxRestricts; i++ {
			child, err := view.Restrict(ctx, dataset.Eq{Attr: "X", Value: "x" + strconv.Itoa(i)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := child.Counts(ctx, []string{"O"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		view.mu.Lock()
		kids := view.restricts
		view.mu.Unlock()
		if len(kids) > maxRestricts {
			t.Errorf("restriction memo holds %d wrappers, want ≤ %d", len(kids), maxRestricts)
		}
		// The ledger holds exactly the cells of the kept children: the
		// root's and the pin's own views live in the root's cache, empty
		// here.
		held := 0
		for _, k := range kids {
			held += k.totalCells
		}
		if held == 0 {
			t.Fatal("restricted reads stored no views")
		}
		if got := view.TotalCachedCells(); got != held {
			t.Errorf("ledger holds %d cells, want the kept children's %d", got, held)
		}
		if view == root {
			rootCells = held
		}
	}
	if got := root.TotalCachedCells(); got != rootCells {
		t.Errorf("root ledger holds %d cells, want %d: the pin's restrictions leaked into it", got, rootCells)
	}
}

// TestStaleViewReplaysDeltaChain: a view a pinned reader stored at an old
// version, after appends the cache did not upgrade it through, is brought
// up to date on its next read by replaying the remembered append deltas —
// one DeltaApplied, no fetch, counts equal to a fresh tabulation. A view
// more than maxDeltas appends behind has lost the start of its chain and
// is fetched again.
func TestStaleViewReplaysDeltaChain(t *testing.T) {
	ctx := context.Background()
	attrs := []string{"G", "O"}
	for _, behind := range []int{2, maxDeltas, maxDeltas + 1} {
		sh := shardedFixture(t)
		c := Wrap(sh, 0)
		pin := c.Pin() // v1
		for i := 0; i < behind; i++ {
			// The second append adds an unseen G label, so the replay also
			// re-strides the view.
			row := []string{"a", "1"}
			if i == 1 {
				row = []string{"c", "0"}
			}
			if _, err := c.Append(ctx, [][]string{row}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				// The root is at v2 with nothing cached: the pin's read
				// stores the view at v1, where no later append upgrades it.
				if _, err := pin.Counts(ctx, attrs, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := c.Stats()
		if before.Fetches != 1 {
			t.Fatalf("behind %d: %d fetches before the stale read, want the pin's 1", behind, before.Fetches)
		}
		got, err := c.Counts(ctx, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := c.Stats()
		replayed := after.DeltaApplied == before.DeltaApplied+1 && after.Fetches == before.Fetches
		fetched := after.DeltaApplied == before.DeltaApplied && after.Fetches == before.Fetches+1
		if behind <= maxDeltas && !replayed {
			t.Errorf("behind %d: stats %+v -> %+v, want one delta replay and no fetch", behind, before, after)
		}
		if behind > maxDeltas && !fetched {
			t.Errorf("behind %d: stats %+v -> %+v, want a fetch past the delta window", behind, before, after)
		}
		snap, _ := sh.Snapshot()
		want, err := source.Tabulate(ctx, snap, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Map()) {
			t.Errorf("behind %d: stale-view counts %v differ from a fresh tabulation %v", behind, got, want.Map())
		}
		checkIndex(t, c)
	}
}
