package hypdb_test

// Round-trip accounting for the SQL backend: the one-query-per-closure
// pushdown (countcache.Prime and the count cache's marginals) must
// keep the number of GROUP BY queries per analysis O(1) in the number of
// independence tests, or the CD hill-climb degrades back to a query per
// scored subset. These tests pin the budget with the in-process memsql
// driver's statement counters.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hypdb"
	"hypdb/internal/core"
	"hypdb/internal/countcache"
	"hypdb/internal/dag"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/memsql"
	"hypdb/source"
	"hypdb/source/sharded"
	"hypdb/source/sqldb"
)

// openSQLBacked registers tab and opens a sqldb relation over it.
func openSQLBacked(t *testing.T, name string, tab *dataset.Table) *sqldb.Relation {
	t.Helper()
	memsql.Register(name, tab)
	t.Cleanup(func() { memsql.Unregister(name) })
	conn, err := memsql.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sqldb.Open(context.Background(), conn, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return rel
}

// TestCDQueryCollapse: covariate discovery over a count-cached SQL relation
// issues a constant number of GROUP BY queries — one finest group-by over
// the attribute closure — regardless of how many subsets the boundary
// search and the phase I/II enumerations score.
func TestCDQueryCollapse(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := openSQLBacked(t, "qc_random", tab)
	cached := countcache.Wrap(rel, 0)
	attrs := tab.Columns()
	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}

	memsql.ResetStats()
	res, err := core.DiscoverCovariates(context.Background(), cached, attrs[0], attrs[1:], nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests == 0 {
		t.Fatal("no independence tests ran — the assertion would be vacuous")
	}
	st := memsql.SnapshotStats()
	if st.GroupBys > 2 {
		t.Errorf("covariate discovery issued %d GROUP BY queries (%d tests), want ≤ 2 (one closure prime)",
			st.GroupBys, res.Tests)
	}
	if bs := rel.Stats(); bs.CountQueries > 2 {
		t.Errorf("sqldb handle reports %d count queries, want ≤ 2", bs.CountQueries)
	}
}

// TestCompositeBalanceQueryCollapse: a cold balance test of a variable set
// on a restricted SQL view issues exactly one GROUP BY under every test
// method: χ² primes the view's count cache with T ∪ V and marginalizes
// every entropy from it, and MIT numbers V's tuples from the one table it
// tests.
func TestCompositeBalanceQueryCollapse(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 3, Alpha: 0.35, Rows: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	attrs := tab.Columns()
	where := dataset.Eq{Attr: attrs[0], Value: tab.MustColumn(attrs[0]).Value(0)}
	for _, method := range []core.TestMethod{core.ChiSquaredMethod, core.MITMethod, core.HyMITMethod} {
		rel := openSQLBacked(t, "qc_balance_"+method.String(), tab)
		view, err := countcache.Wrap(rel, 0).Restrict(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Method: method, Seed: 7, Permutations: 100}
		memsql.ResetStats()
		if _, err := cfg.TestBalance(ctx, view, attrs[1], attrs[2:5], nil); err != nil {
			t.Fatal(err)
		}
		if st := memsql.SnapshotStats(); st.GroupBys != 1 {
			t.Errorf("%v: cold balance test over %v issued %d GROUP BY queries, want 1 (stats %+v)",
				method, attrs[2:5], st.GroupBys, st)
		}
	}
}

// TestShardedQueryCollapse: the partition-parallel fan-out preserves the
// one-query-per-closure pushdown per shard. Priming a count-cached sharded
// relation whose K shards are SQL backends issues exactly K finest
// group-bys (one per shard), and covariate discovery over the primed cache
// then marginalizes client-side without any further backend round trips.
func TestShardedQueryCollapse(t *testing.T) {
	const k = 3
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows := tab.NumRows()
	shards := make([]source.Relation, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*rows/k, (i+1)*rows/k
		idx := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			idx = append(idx, r)
		}
		sub, err := tab.SelectRows(idx)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, openSQLBacked(t, fmt.Sprintf("qc_shard_%d", i), sub))
	}
	rel, err := sharded.New(ctx, "qc_sharded", shards)
	if err != nil {
		t.Fatal(err)
	}
	cached := countcache.Wrap(rel, 0)
	attrs := tab.Columns()

	memsql.ResetStats()
	if err := cached.Prime(ctx, attrs, 0); err != nil {
		t.Fatal(err)
	}
	if st := memsql.SnapshotStats(); st.GroupBys != k {
		t.Errorf("priming the %d-shard closure issued %d GROUP BY queries, want exactly %d (one per shard)",
			k, st.GroupBys, k)
	}

	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}
	memsql.ResetStats()
	res, err := core.DiscoverCovariates(ctx, cached, attrs[0], attrs[1:], nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests == 0 {
		t.Fatal("no independence tests ran — the assertion would be vacuous")
	}
	if st := memsql.SnapshotStats(); st.GroupBys != 0 {
		t.Errorf("covariate discovery over the primed sharded cache issued %d GROUP BY queries (%d tests), want 0",
			st.GroupBys, res.Tests)
	}
}

// TestAuditSweepQueryCollapse: a whole audit sweep — N candidate queries
// sharing one covariate-discovery closure (the full schema) — issues O(1)
// backend GROUP BY round trips, not O(N). One finest group-by primes the
// count cache; every candidate's discovery, balance test, explanation and
// rewriting marginalizes it client-side.
func TestAuditSweepQueryCollapse(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := openSQLBacked(t, "qc_audit", tab)
	db := hypdb.OpenSource(rel)

	memsql.ResetStats()
	rep, err := db.Audit(context.Background(), hypdb.AuditSpec{MinSupport: 10},
		hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated < 10 {
		t.Fatalf("only %d candidates evaluated — the sweep assertion would be vacuous", rep.Evaluated)
	}
	st := memsql.SnapshotStats()
	const budget = 4
	if st.GroupBys > budget {
		t.Errorf("audit sweep over %d candidates issued %d GROUP BY queries, budget %d (stats %+v)",
			rep.Evaluated, st.GroupBys, budget, st)
	}
}

// TestAnalyzeQueryBudget: one cold end-to-end Analyze against the SQL
// backend stays within a small constant GROUP BY budget. Without the
// closure collapse the same analysis issues hundreds (one per entropy
// subset scored by the two CD runs).
func TestAnalyzeQueryBudget(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	rel := openSQLBacked(t, "qc_berkeley", tab)
	db := hypdb.OpenSource(rel)

	memsql.ResetStats()
	if _, err := db.Analyze(context.Background(), datagen.BerkeleyQuery(),
		hypdb.WithSeed(7), hypdb.WithPermutations(100)); err != nil {
		t.Fatal(err)
	}
	st := memsql.SnapshotStats()
	const budget = 32
	if st.GroupBys > budget {
		t.Errorf("cold Analyze issued %d GROUP BY queries, budget %d (stats %+v)", st.GroupBys, budget, st)
	}
}

// TestBatchPlanQueryBudget: a heterogeneous batch — a whole 30-candidate
// audit sweep plus an 8-query analyze batch racing on one session handle —
// stays within a single-digit GROUP BY budget, strictly below the sum of
// the per-request budgets above. The two racing calls plan separately, each
// priming one whole-schema cuboid frontier, and share the session count
// cache: the audit's whole-schema cuboid subsumes every analyze demand, so
// the backend sees at most one finest group-by per plan (plus fixed
// per-handle overhead) for the entire mixed workload.
func TestBatchPlanQueryBudget(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := openSQLBacked(t, "qc_batchplan", tab)
	db := hypdb.OpenSource(rel)
	attrs := tab.Columns()

	// Eight distinct treatment/outcome pairs: eight covariate discoveries
	// over eight different targets, all of whose closures the audit's
	// whole-schema cuboid subsumes. (Grouped queries are excluded here:
	// their per-context views are sliced out of the cuboid, which
	// TestSessionSlicesRestrictedViews pins.)
	queries := make([]hypdb.Query, 0, 8)
	for i := 0; i < 8; i++ {
		queries = append(queries, hypdb.Query{
			Treatment: attrs[i%len(attrs)],
			Outcomes:  []string{attrs[(i+1)%len(attrs)]},
		})
	}

	ctx := context.Background()
	opts := []hypdb.Option{hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7)}
	memsql.ResetStats()
	var (
		wg       sync.WaitGroup
		auditRep *hypdb.AuditReport
		auditErr error
		reps     []*hypdb.Report
		batchErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		auditRep, auditErr = db.Audit(ctx, hypdb.AuditSpec{MinSupport: 10}, opts...)
	}()
	go func() {
		defer wg.Done()
		reps, batchErr = db.AnalyzeAll(ctx, queries, opts...)
	}()
	wg.Wait()
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if auditRep.Evaluated < 25 {
		t.Fatalf("only %d audit candidates evaluated — the sweep side would be vacuous", auditRep.Evaluated)
	}
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("analyze query %d returned no report", i)
		}
	}

	st := memsql.SnapshotStats()
	const budget = 6
	if st.GroupBys > budget {
		t.Errorf("mixed batch (30-candidate audit + %d analyses) issued %d GROUP BY queries, budget %d (stats %+v)",
			len(queries), st.GroupBys, budget, st)
	}
	// Every demand — the audit's plus one per analyze query — must have
	// been planned, and the whole mixed workload must share one cuboid
	// frontier per plan (identical closures here, so each plan's frontier
	// is a single whole-schema cuboid).
	ps := db.Stats().Planner
	if ps.Plans == 0 || ps.DemandsPlanned < len(queries)+1 {
		t.Errorf("planner did not serve the batch: %+v", ps)
	}
	if ps.Cuboids > ps.Plans {
		t.Errorf("mixed workload split into %d cuboids over %d plans, want one frontier cuboid per plan: %+v",
			ps.Cuboids, ps.Plans, ps)
	}
}

// TestSessionSlicesRestrictedViews pins the GROUP BY count of the
// audit-sqldb benchmark's op shape: an 8-query batch over distinct
// treatments, half of them grouped, then a whole-relation audit with χ²
// tests, on one SQL session whose treatments have more than two values (so
// the audit restricts each to its two best-supported ones). The planner
// primes one whole-schema cuboid; every restricted view — per-context
// views of the grouped queries, the audit's treatment restrictions and the
// views nested below them — is sliced out of it (countcache.Relation.Slice
// coded in each view's own dictionaries), so the session sends exactly one
// GROUP BY. Answering each restricted view from the backend sent 68 here.
func TestSessionSlicesRestrictedViews(t *testing.T) {
	// The benchmark's net: 10 nodes of cardinality 2-4, average degree 2.5.
	rng := rand.New(rand.NewSource(21))
	g, err := dag.RandomDAGAvgDegree(rng, 10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := dag.RandomBayesNet(rng, g, 2, 4, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(1)), 7000)
	if err != nil {
		t.Fatal(err)
	}
	rel := openSQLBacked(t, "qc_slice", tab)
	db := hypdb.OpenSource(rel)
	attrs := tab.Columns()
	queries := make([]hypdb.Query, 0, 8)
	for i := 0; i < 8; i++ {
		q := hypdb.Query{Treatment: attrs[i%len(attrs)], Outcomes: []string{attrs[(i+1)%len(attrs)]}}
		if i%2 == 0 {
			q.Groupings = []string{attrs[(i+3)%len(attrs)]}
		}
		queries = append(queries, q)
	}
	ctx := context.Background()
	opts := []hypdb.Option{hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7)}

	memsql.ResetStats()
	// Four workers run the batch's queries, and their slices, concurrently.
	if _, err := db.AnalyzeAll(ctx, queries, append([]hypdb.Option{hypdb.WithWorkers(4)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Audit(ctx, hypdb.AuditSpec{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st := memsql.SnapshotStats()
	t.Logf("audit evaluated %d candidates; stats %+v", rep.Evaluated, st)
	if rep.Evaluated == 0 {
		t.Fatal("the audit evaluated no candidate — the assertion would be vacuous")
	}
	if st.Dicts <= int64(len(attrs)) {
		t.Fatalf("%d dictionary loads: no restricted view was read, the assertion would be vacuous", st.Dicts)
	}
	if st.GroupBys != 1 {
		t.Errorf("batch + audit session issued %d GROUP BY queries, want 1 (the planner's prime)", st.GroupBys)
	}
}
