package sharded_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sharded"
)

// equalCounts asserts two counts maps are byte-identical: same keys (same
// dictionary codes), same counts.
func equalCounts(t *testing.T, label string, got, want map[source.Key]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: key %v = %d, want %d", label, k.Codes(), got[k], w)
		}
	}
}

func equalDense(t *testing.T, label string, got, want *dataset.DenseCounts) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: dense nil mismatch: got %v, want %v", label, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Cards, want.Cards) {
		t.Fatalf("%s: layout (%v,%v), want (%v,%v)", label, got.Attrs, got.Cards, want.Attrs, want.Cards)
	}
	if got.Total != want.Total || !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("%s: cells differ (totals %d vs %d)", label, got.Total, want.Total)
	}
}

// The merge paths TestShardedMergeMatchesMem drives.
const (
	// smallCells selects 1–3 attributes: dense globally and in every shard.
	smallCells = iota
	// overBudget selects every attribute of a table whose cell space
	// exceeds the global budget: DenseCounts declines, and Counts merges
	// the shards' cells into one map.
	overBudget
	// sparseShards selects every attribute of a table whose cell space fits
	// the global budget but not a small shard's: the global view is dense
	// while shards answer in the sparse form.
	sparseShards
)

// TestShardedMergeMatchesMem is the merge-correctness property test: for
// random tables and shard counts, every sharded Counts/DenseCounts result —
// unpredicated, predicated, and over Restrict views — must be byte-identical
// to the mem backend over the unpartitioned table, on every merge path.
func TestShardedMergeMatchesMem(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		spec   datagen.RandomSpec
		shards []int
		path   int
	}{
		{datagen.RandomSpec{Nodes: 5, MinCard: 2, MaxCard: 5, Rows: 400}, []int{1, 2, 3, 4, 7}, smallCells},
		{datagen.RandomSpec{Nodes: 7, MinCard: 6, MaxCard: 9, Rows: 400}, []int{1, 2, 3, 4, 7}, overBudget},
		{datagen.RandomSpec{Nodes: 4, MinCard: 9, MaxCard: 9, Rows: 400}, []int{7}, sparseShards},
	}
	for ci, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			spec := tc.spec
			spec.Seed = int64(100 + trial)
			tab, _, err := datagen.Random(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref := mem.New(tab)
			attrs := tab.Columns()
			rng := rand.New(rand.NewSource(int64(trial)))
			for _, shards := range tc.shards {
				sh, err := sharded.Partition(tab, "D", shards)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("case%d/trial%d/shards%d", ci, trial, shards)

				// Dictionaries must agree with the source table exactly.
				for _, a := range attrs {
					want, _ := ref.Labels(ctx, a)
					got, err := sh.Labels(ctx, a)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: dict(%s) = %v, want %v", name, a, got, want)
					}
				}

				// A handful of random attribute subsets, sparse and dense.
				for rep := 0; rep < 5; rep++ {
					k := len(attrs)
					if tc.path == smallCells {
						k = 1 + rng.Intn(3)
					}
					sel := append([]string(nil), attrs...)
					rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
					sel = sel[:k]

					want, err := ref.Counts(ctx, sel, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.Counts(ctx, sel, nil)
					if err != nil {
						t.Fatal(err)
					}
					equalCounts(t, name+"/counts", got, want)

					wantD, err := ref.DenseCounts(ctx, sel, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					gotD, err := sh.DenseCounts(ctx, sel, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					equalDense(t, name+"/dense", gotD, wantD)
					switch {
					case tc.path == overBudget && gotD != nil:
						t.Fatalf("%s: over-budget view %v came back dense", name, gotD.Cards)
					case tc.path == sparseShards && (gotD == nil || !anySparseShard(t, sh, sel)):
						t.Fatalf("%s: want a dense global view over sparse shards", name)
					}

					// Predicated counts pass through to the shards and must
					// still merge to the reference.
					labels, _ := ref.Labels(ctx, attrs[0])
					pred := dataset.Eq{Attr: attrs[0], Value: labels[rng.Intn(len(labels))]}
					wantP, err := ref.Counts(ctx, sel, pred)
					if err != nil {
						t.Fatal(err)
					}
					gotP, err := sh.Counts(ctx, sel, pred)
					if err != nil {
						t.Fatal(err)
					}
					equalCounts(t, name+"/where", gotP, wantP)
				}

				// Restrict: compacted dictionaries and counts must match the mem
				// backend's restriction of the same predicate.
				labels, _ := ref.Labels(ctx, attrs[1])
				pred := dataset.Not{Pred: dataset.Eq{Attr: attrs[1], Value: labels[0]}}
				wantView, err := ref.Restrict(ctx, pred)
				if err != nil {
					t.Fatal(err)
				}
				gotView, err := sh.Restrict(ctx, pred)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range attrs {
					wl, _ := wantView.Labels(ctx, a)
					gl, err := gotView.Labels(ctx, a)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gl, wl) {
						t.Fatalf("%s: restricted dict(%s) = %v, want %v", name, a, gl, wl)
					}
				}
				sel := attrs[:2]
				wantR, err := wantView.Counts(ctx, sel, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := gotView.Counts(ctx, sel, nil)
				if err != nil {
					t.Fatal(err)
				}
				equalCounts(t, name+"/restrict", gotR, wantR)

				// Materialization must reproduce the original table row-for-row.
				mt, err := sh.Materialize(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if mt.NumRows() != tab.NumRows() {
					t.Fatalf("%s: materialized %d rows, want %d", name, mt.NumRows(), tab.NumRows())
				}
				for _, a := range attrs {
					wc := tab.MustColumn(a)
					gc := mt.MustColumn(a)
					if !reflect.DeepEqual(gc.Codes(), wc.Codes()) || !reflect.DeepEqual(gc.Labels(), wc.Labels()) {
						t.Fatalf("%s: materialized column %s differs from source", name, a)
					}
				}
			}
		}
	}
}

// anySparseShard reports whether some shard of sh declines a dense view
// over attrs, and so answers the merge in the sparse form.
func anySparseShard(t *testing.T, sh *sharded.Relation, attrs []string) bool {
	t.Helper()
	for _, child := range sh.Children() {
		dc, err := source.Dense(context.Background(), child, attrs, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dc == nil {
			return true
		}
	}
	return false
}

// TestShardedAppendSnapshots exercises streaming ingestion: appends create
// new versions, snapshots pin old ones, deltas carry exactly the appended
// rows, and unseen labels extend the global dictionaries without disturbing
// existing codes.
func TestShardedAppendSnapshots(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("G", "O")
	for _, r := range [][2]string{{"a", "0"}, {"a", "1"}, {"b", "0"}, {"b", "1"}} {
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
	if got := sh.SnapshotVersion(); got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	snap, ver := sh.Snapshot()
	if ver != 1 {
		t.Fatalf("snapshot version = %d, want 1", ver)
	}

	res, err := sh.Append(ctx, [][]string{{"c", "1"}, {"a", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 2 || res.NumRows != 6 || res.Version != 2 {
		t.Fatalf("append result = %+v, want 2 rows, 6 total, version 2", res)
	}
	if sh.SnapshotVersion() != 2 || sh.NumPartitions() != 3 {
		t.Fatalf("post-append version %d / partitions %d, want 2 / 3", sh.SnapshotVersion(), sh.NumPartitions())
	}

	// The pinned snapshot still sees the old epoch: 4 rows, 2 G labels.
	if n, _ := snap.NumRows(ctx); n != 4 {
		t.Errorf("pinned snapshot rows = %d, want 4", n)
	}
	if l, _ := snap.Labels(ctx, "G"); len(l) != 2 {
		t.Errorf("pinned snapshot dict = %v, want 2 labels", l)
	}
	// The live relation sees the new epoch, with "c" appended at code 2.
	if l, _ := sh.Labels(ctx, "G"); !reflect.DeepEqual(l, []string{"a", "b", "c"}) {
		t.Errorf("live dict = %v, want [a b c]", l)
	}
	live, err := sh.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := map[source.Key]int{
		dataset.EncodeKey(0): 3, // a
		dataset.EncodeKey(1): 2, // b
		dataset.EncodeKey(2): 1, // c
	}
	equalCounts(t, "live counts", live, wantLive)

	// The delta serves exactly the appended rows, in the global coding.
	dcounts, err := res.Delta.Counts(ctx, []string{"G", "O"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := map[source.Key]int{
		dataset.EncodeKey(2, 1): 1, // (c, 1)
		dataset.EncodeKey(0, 1): 1, // (a, 1)
	}
	equalCounts(t, "delta counts", dcounts, wantDelta)

	// Backend identities must separate epochs and the delta view.
	if snap.Backend() == sh.Backend() {
		t.Error("snapshot and live backend identities must differ across versions")
	}

	// Empty appends are version-preserving no-ops.
	res2, err := sh.Append(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Version != 2 || res2.Appended != 0 {
		t.Fatalf("empty append result = %+v, want version 2, 0 rows", res2)
	}

	// Ragged rows are rejected.
	if _, err := sh.Append(ctx, [][]string{{"only-one"}}); err == nil {
		t.Error("ragged append accepted")
	}
}

// TestShardedConcurrentAppendsAndReads drives appends and fan-out reads in
// parallel; run under -race this checks the snapshot isolation of the
// partition list and the append-only dictionaries. Every read must observe
// a consistent epoch: a total row count that is 4 plus a multiple of 2.
func TestShardedConcurrentAppendsAndReads(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("G", "O")
	for _, r := range [][2]string{{"a", "0"}, {"a", "1"}, {"b", "0"}, {"b", "1"}} {
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
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := sh.Append(ctx, [][]string{
					{fmt.Sprintf("g%d", w), "0"}, {fmt.Sprintf("g%d", i%3), "1"},
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				counts, err := sh.Counts(ctx, []string{"G", "O"}, nil)
				if err != nil {
					errs <- err
					return
				}
				total := 0
				for _, c := range counts {
					total += c
				}
				if total < 4 || (total-4)%2 != 0 {
					errs <- fmt.Errorf("torn read: total %d", total)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := sh.NumRows(ctx); n != 4+4*8*2 {
		t.Fatalf("final rows = %d, want %d", n, 4+4*8*2)
	}
}

// flakyChild wraps a child relation and fails counts reads with
// ErrPeerUnavailable while down is set — the failure shape of a lost remote
// peer. It deliberately exposes no DenseCounter capability, so the fan-out
// reaches the overridden Counts on both the dense and sparse paths.
type flakyChild struct {
	source.Relation
	down atomic.Bool
}

func (f *flakyChild) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if f.down.Load() {
		return nil, fmt.Errorf("flaky child: %w", hyperr.ErrPeerUnavailable)
	}
	return f.Relation.Counts(ctx, attrs, where)
}

// TestDegradedSkipAdvancesSnapshotVersion pins the cache-poisoning defense:
// every degraded (partial) serve must advance the relation's snapshot
// version and backend identity, so version-keyed caches (and backend-keyed
// memos) can never answer a read that starts after the skip from the
// partial counts — including after the peer recovers.
func TestDegradedSkipAdvancesSnapshotVersion(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("G", "O")
	for _, r := range [][2]string{{"a", "0"}, {"a", "1"}, {"b", "0"}, {"b", "1"}} {
		b.MustAdd(r[0], r[1])
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyChild{Relation: mem.NewNamed(tab, "D")}
	sh, err := sharded.New(ctx, "D", []source.Relation{mem.NewNamed(tab, "D"), flaky})
	if err != nil {
		t.Fatal(err)
	}
	sh.SetDegradedReads(true)

	full, err := sh.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v0, b0 := sh.SnapshotVersion(), sh.Backend()

	flaky.down.Store(true)
	part, err := sh.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if sh.DegradedServes() == 0 {
		t.Fatal("degraded serve not counted")
	}
	partial, complete := 0, 0
	for _, c := range part {
		partial += c
	}
	for _, c := range full {
		complete += c
	}
	if partial*2 != complete {
		t.Fatalf("partial total = %d, want half of %d", partial, complete)
	}
	if v1 := sh.SnapshotVersion(); v1 <= v0 {
		t.Fatalf("snapshot version = %d after a degraded serve, want > %d", v1, v0)
	}
	if sh.Backend() == b0 {
		t.Fatal("backend identity unchanged after a degraded serve")
	}

	// Recovery: reads are complete again and no longer move the version.
	flaky.down.Store(false)
	again, err := sh.Counts(ctx, []string{"G"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalCounts(t, "recovered counts", again, full)
	vStable := sh.SnapshotVersion()
	if _, err := sh.Counts(ctx, []string{"G", "O"}, nil); err != nil {
		t.Fatal(err)
	}
	if sh.SnapshotVersion() != vStable {
		t.Error("healthy read moved the snapshot version")
	}
}
