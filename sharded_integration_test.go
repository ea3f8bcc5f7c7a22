package hypdb_test

// Integration coverage for the sharded partition-parallel backend: the
// paper-reproduction goldens must be byte-identical under WithShards (the
// shard merge is an implementation detail, not a statistical change), and
// streaming appends must neither perturb an in-flight audit (snapshot
// pinning) nor force the count cache to re-prime (delta application).

import (
	"context"
	"reflect"
	"testing"

	"hypdb"
	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
)

// TestPaperReproShardedEquivalence re-runs the three headline paper
// reproductions over the sharded backend with four partitions and checks
// them against the SAME golden files as the unsharded runs: identical
// covariates, p-values, effects and explanations to the digit.
func TestPaperReproShardedEquivalence(t *testing.T) {
	t.Run("berkeley", func(t *testing.T) {
		tab, err := datagen.Berkeley(1)
		if err != nil {
			t.Fatal(err)
		}
		db := hypdb.Open(tab, hypdb.WithShards(4))
		s := analyzeSummaryOn(t, "BerkeleyData", db, tab.NumRows(), datagen.BerkeleyQuery(), hypdb.WithSeed(1))
		checkGolden(t, "berkeley.golden.json", s)
	})
	t.Run("staples", func(t *testing.T) {
		tab, err := datagen.Staples(50000, 1)
		if err != nil {
			t.Fatal(err)
		}
		db := hypdb.Open(tab, hypdb.WithShards(4))
		s := analyzeSummaryOn(t, "StaplesData", db, tab.NumRows(), datagen.StaplesQuery(), hypdb.WithSeed(1))
		checkGolden(t, "staples.golden.json", s)
	})
	t.Run("flight", func(t *testing.T) {
		tab, err := datagen.Flight(12000, 1)
		if err != nil {
			t.Fatal(err)
		}
		db := hypdb.Open(tab, hypdb.WithShards(4))
		s := analyzeSummaryOn(t, "FlightData", db, tab.NumRows(), datagen.FlightQuery(),
			hypdb.WithSeed(1), hypdb.WithPermutations(200))
		checkGolden(t, "flight.golden.json", s)
	})
}

// TestAuditUnperturbedByAppend pins the snapshot-isolation contract at the
// session level: an Append landing in the middle of an audit sweep must not
// change the sweep's report — the sweep analyzes the snapshot it started
// on. Afterwards, the next query must be served by delta-applied cache
// views (no re-prime) and must see the appended rows.
func TestAuditUnperturbedByAppend(t *testing.T) {
	ctx := context.Background()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := hypdb.AuditSpec{Workers: 1}
	opts := []hypdb.Option{hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7)}

	// Reference sweep: same data, no interference.
	want, err := hypdb.Open(tab, hypdb.WithShards(4)).Audit(ctx, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Interfered sweep: the first progress callback appends rows that
	// would flip counts if they leaked into the running sweep.
	db := hypdb.Open(tab, hypdb.WithShards(4))
	appended := false
	mid := spec
	mid.Progress = func(done, total int) {
		if appended {
			return
		}
		appended = true
		rows := make([][]string, 500)
		for i := range rows {
			rows[i] = []string{"Female", "A", "1"}
		}
		if _, err := db.Append(ctx, rows); err != nil {
			t.Errorf("mid-audit append: %v", err)
		}
	}
	got, err := db.Audit(ctx, mid, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !appended {
		t.Fatal("the progress hook never fired — the interference is vacuous")
	}

	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mid-audit append changed the report:\n got: %+v\nwant: %+v", got, want)
	}

	// The appended rows are visible to the next call, served from
	// delta-applied views: DeltaApplied advanced and the fetch count did
	// not (no full re-prime).
	cc, ok := db.Relation().(*countcache.Relation)
	if !ok {
		t.Fatalf("session relation is %T, want *countcache.Relation", db.Relation())
	}
	stBefore := cc.Stats()
	if stBefore.DeltaApplied == 0 {
		t.Errorf("no cached view was delta-applied: %+v", stBefore)
	}
	n, err := db.NumRows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != tab.NumRows()+500 {
		t.Fatalf("post-append rows = %d, want %d", n, tab.NumRows()+500)
	}
	ans, err := db.Run(ctx, datagen.BerkeleyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("empty answer after append")
	}
	total := 0
	for _, r := range ans.Rows {
		total += r.Count
	}
	if total != tab.NumRows()+500 {
		t.Errorf("post-append answer covers %d rows, want %d", total, tab.NumRows()+500)
	}
	if st := cc.Stats(); st.Fetches != stBefore.Fetches {
		t.Errorf("post-append query re-fetched the backend (%d -> %d fetches); want delta-served",
			stBefore.Fetches, st.Fetches)
	}
}

// TestAppendedVersionRunsItsOwnTests pins the test memo's version safety:
// results live on the pinned view they were computed on, so an analysis at
// the version an Append created executes its own tests — exactly those a
// fresh handle over the appended data executes — and never reuses results
// of the previous version.
func TestAppendedVersionRunsItsOwnTests(t *testing.T) {
	ctx := context.Background()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, 500)
	for i := range rows {
		rows[i] = []string{"Female", "A", "1"}
	}
	q := datagen.BerkeleyQuery()
	opts := []hypdb.Option{hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7)}
	memoStats := func(db *hypdb.DB) countcache.Stats { return db.Relation().(*countcache.Relation).Stats() }
	analyze := func(db *hypdb.DB) (string, int, int) {
		before := memoStats(db)
		rep, err := db.Analyze(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		after := memoStats(db)
		return normalizedReport(t, rep), after.MemoHits - before.MemoHits, after.MemoMisses - before.MemoMisses
	}

	// Reference: a fresh handle analyzing the appended data once.
	ref := hypdb.Open(tab, hypdb.WithShards(4))
	if _, err := ref.Append(ctx, rows); err != nil {
		t.Fatal(err)
	}
	want, wantHits, wantMisses := analyze(ref)

	// The same analysis before and after the append on one handle.
	db := hypdb.Open(tab, hypdb.WithShards(4))
	analyze(db)
	if _, err := db.Append(ctx, rows); err != nil {
		t.Fatal(err)
	}
	got, hits, misses := analyze(db)
	if got != want {
		t.Errorf("post-append report differs from a fresh handle's\n got: %s\nwant: %s", got, want)
	}
	if hits != wantHits || misses != wantMisses {
		t.Errorf("post-append analysis: %d memo hits, %d executed tests; a fresh handle: %d, %d",
			hits, misses, wantHits, wantMisses)
	}
	if misses == 0 {
		t.Error("the post-append analysis executed no test")
	}
}
