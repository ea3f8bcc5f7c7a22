package hypdb_test

// One benchmark per table/figure of the paper's evaluation (Sec 7). These
// measure the code paths behind each experiment at bench-friendly sizes;
// cmd/experiments regenerates the full paper-style rows and sweeps.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hypdb"
	"hypdb/internal/cdd"
	"hypdb/internal/core"
	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/independence"
	"hypdb/internal/memsql"
	"hypdb/internal/query"
	"hypdb/internal/stats"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sharded"
	"hypdb/source/sqldb"
)

// fixtures caches generated datasets across benchmarks.
var fixtures sync.Map

func fixture(b *testing.B, key string, gen func() (*dataset.Table, error)) *dataset.Table {
	b.Helper()
	if v, ok := fixtures.Load(key); ok {
		return v.(*dataset.Table)
	}
	tab, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	fixtures.Store(key, tab)
	return tab
}

func flightSmall(b *testing.B) *dataset.Table {
	return fixture(b, "flight", func() (*dataset.Table, error) { return datagen.Flight(12000, 1) })
}

func randomTable(b *testing.B, rows int) *dataset.Table {
	return fixture(b, fmt.Sprintf("random-%d", rows), func() (*dataset.Table, error) {
		tab, _, err := datagen.Random(datagen.RandomSpec{
			Nodes: 8, AvgDegree: 2.5, MinCard: 2, MaxCard: 4, Alpha: 0.35, Rows: rows, Seed: 21,
		})
		return tab, err
	})
}

func benchAnalyze(b *testing.B, tab *dataset.Table, q query.Query) {
	b.Helper()
	opts := core.Options{Config: core.Config{Seed: 7, Permutations: 200, Parallel: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(context.Background(), mem.New(tab), q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 1 / Table 1: end-to-end analysis per dataset

func BenchmarkFig1FlightAnalysis(b *testing.B) {
	benchAnalyze(b, flightSmall(b), datagen.FlightQuery())
}

func BenchmarkTable1Adult(b *testing.B) {
	tab := fixture(b, "adult", func() (*dataset.Table, error) { return datagen.Adult(12000, 1) })
	benchAnalyze(b, tab, datagen.AdultQuery())
}

func BenchmarkTable1Staples(b *testing.B) {
	tab := fixture(b, "staples", func() (*dataset.Table, error) { return datagen.Staples(50000, 1) })
	benchAnalyze(b, tab, datagen.StaplesQuery())
}

func BenchmarkTable1Berkeley(b *testing.B) {
	tab := fixture(b, "berkeley", func() (*dataset.Table, error) { return datagen.Berkeley(1) })
	benchAnalyze(b, tab, datagen.BerkeleyQuery())
}

func BenchmarkTable1Cancer(b *testing.B) {
	tab := fixture(b, "cancer", func() (*dataset.Table, error) { return datagen.Cancer(datagen.CancerRows, 1) })
	benchAnalyze(b, tab, datagen.CancerQuery())
}

func BenchmarkTable1Flight(b *testing.B) {
	benchAnalyze(b, flightSmall(b), datagen.FlightQuery())
}

// ---------------------------------------------------------------------------
// Session-handle caching: the cross-query covariate-discovery memo

// BenchmarkAnalyzeWarmVsCold quantifies the session cache: "cold" opens a
// fresh handle per query (every call rediscovers covariates, like the
// deprecated free functions), "warm" reuses one handle so repeated queries
// skip the CD phase entirely.
func BenchmarkAnalyzeWarmVsCold(b *testing.B) {
	tab := flightSmall(b)
	q := datagen.FlightQuery()
	opts := []hypdb.Option{hypdb.WithSeed(7), hypdb.WithPermutations(200), hypdb.WithParallel(true)}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hypdb.Open(tab).Analyze(ctx, q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		db := hypdb.Open(tab)
		if _, err := db.Analyze(ctx, q, opts...); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Analyze(ctx, q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 3 / Fig 4: the end-to-end report pipelines (same code path as Table 1
// on the respective datasets; kept as named benches for the experiment index)

func BenchmarkFig3AdultReport(b *testing.B) { BenchmarkTable1Adult(b) }

func BenchmarkFig4CancerReport(b *testing.B) { BenchmarkTable1Cancer(b) }

// ---------------------------------------------------------------------------
// Fig 5(a): random query rewriting

func BenchmarkFig5aRandomQueries(b *testing.B) {
	tab := flightSmall(b)
	q := datagen.FlightQuery()
	cov := datagen.FlightCovariates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Run(context.Background(), mem.New(tab), q); err != nil {
			b.Fatal(err)
		}
		if _, err := query.RewriteTotal(context.Background(), mem.New(tab), q, cov); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 5(b,c,d): parent recovery

func benchParentRecovery(b *testing.B, rows int, method core.TestMethod) {
	tab := randomTable(b, rows)
	attrs := tab.Columns()
	cfg := core.Config{Method: method, Seed: 7, DisableFallback: true, Permutations: 100, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range attrs {
			if _, err := core.DiscoverCovariates(context.Background(), mem.New(tab), a, excludeOf(attrs, a), nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5bQualitySweepCD(b *testing.B) {
	benchParentRecovery(b, 10000, core.HyMITMethod)
}

func BenchmarkFig5cDeepNodesCD(b *testing.B) {
	benchParentRecovery(b, 10000, core.ChiSquaredMethod)
}

func BenchmarkFig5dSparseCategoriesCD(b *testing.B) {
	tab := fixture(b, "random-sparse", func() (*dataset.Table, error) {
		t, _, err := datagen.Random(datagen.RandomSpec{
			Nodes: 8, AvgDegree: 2.5, MinCard: 10, MaxCard: 10, Alpha: 0.35, Rows: 10000, Seed: 11,
		})
		return t, err
	})
	attrs := tab.Columns()
	cfg := core.Config{Method: core.HyMITMethod, Seed: 7, DisableFallback: true, Permutations: 100, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiscoverCovariates(context.Background(), mem.New(tab), attrs[0], attrs[1:], nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 6(a): test counting — FGS structure learning vs CD

func BenchmarkFig6aFGSStructure(b *testing.B) {
	tab := randomTable(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cdd.LearnStructure(context.Background(), mem.New(tab), tab.Columns(), cdd.ConstraintConfig{
			Tester: independence.ChiSquare{Est: stats.MillerMadow},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aCDSingleNode(b *testing.B) {
	tab := randomTable(b, 10000)
	attrs := tab.Columns()
	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiscoverCovariates(context.Background(), mem.New(tab), attrs[0], attrs[1:], nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 6(b): single-test runtime per method

func benchSingleTest(b *testing.B, tester independence.Tester) {
	tab := fixture(b, "random-wide", func() (*dataset.Table, error) {
		t, _, err := datagen.Random(datagen.RandomSpec{
			Nodes: 8, AvgDegree: 2.5, MinCard: 3, MaxCard: 6, Alpha: 0.35, Rows: 20000, Seed: 21,
		})
		return t, err
	})
	attrs := tab.Columns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Test(context.Background(), mem.New(tab), attrs[0], attrs[1], attrs[2:6]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bMIT(b *testing.B) {
	benchSingleTest(b, independence.MIT{Permutations: 500, Seed: 1, Est: stats.PlugIn, Parallel: true})
}

func BenchmarkFig6bMITSampling(b *testing.B) {
	benchSingleTest(b, independence.MIT{Permutations: 500, Seed: 1, Est: stats.PlugIn, SampleGroups: true, Parallel: true})
}

func BenchmarkFig6bHyMIT(b *testing.B) {
	benchSingleTest(b, independence.HyMIT{Permutations: 500, Seed: 1, Est: stats.MillerMadow, Parallel: true})
}

func BenchmarkFig6bChiSquare(b *testing.B) {
	benchSingleTest(b, independence.ChiSquare{Est: stats.MillerMadow})
}

func BenchmarkFig6bNaiveShuffle(b *testing.B) {
	benchSingleTest(b, independence.Shuffle{Permutations: 100, Seed: 1, Est: stats.PlugIn})
}

// ---------------------------------------------------------------------------
// Fig 6(c): caching/materialization ablation on CD

func benchCDVariant(b *testing.B, mut func(*core.Config)) {
	tab := randomTable(b, 50000)
	attrs := tab.Columns()
	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}
	mut(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiscoverCovariates(context.Background(), mem.New(tab), attrs[0], attrs[1:], nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6cCDNoOptimizations(b *testing.B) {
	benchCDVariant(b, func(c *core.Config) { c.DisableEntropyCache = true; c.DisableMaterialization = true })
}

func BenchmarkFig6cCDMaterializationOnly(b *testing.B) {
	benchCDVariant(b, func(c *core.Config) { c.DisableEntropyCache = true })
}

func BenchmarkFig6cCDCachingOnly(b *testing.B) {
	benchCDVariant(b, func(c *core.Config) { c.DisableMaterialization = true })
}

func BenchmarkFig6cCDBothOptimizations(b *testing.B) {
	benchCDVariant(b, func(c *core.Config) {})
}

// ---------------------------------------------------------------------------
// Fig 6(d) / Fig 8(b): cube benefit

func binaryTable(b *testing.B, nodes, rows int) *dataset.Table {
	return fixture(b, fmt.Sprintf("binary-%d-%d", nodes, rows), func() (*dataset.Table, error) {
		t, _, err := datagen.Random(datagen.RandomSpec{
			Nodes: nodes, AvgDegree: 2.5, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: rows, Seed: 21,
		})
		return t, err
	})
}

func BenchmarkFig6dCDWithoutCube(b *testing.B) {
	tab := binaryTable(b, 8, 100000)
	attrs := tab.Columns()
	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiscoverCovariates(context.Background(), mem.New(tab), attrs[0], attrs[1:], nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// primedCube stands in for the paper's pre-computed data cube: a count
// cache primed with the finest view over attrs, from which it derives (and
// keeps) every marginal CD asks for.
func primedCube(b *testing.B, tab *dataset.Table, attrs []string) *countcache.Relation {
	b.Helper()
	cc := countcache.Wrap(mem.New(tab), 0)
	if err := cc.Prime(context.Background(), attrs, 0); err != nil {
		b.Fatal(err)
	}
	return cc
}

// benchCDWithCube times one cold CD over a primed cube per iteration. The
// cube is primed afresh, untimed, for each: a view keeps the results of the
// tests run on it, so a reused cube would time memo hits from the second
// iteration on.
func benchCDWithCube(b *testing.B, tab *dataset.Table) {
	attrs := tab.Columns()
	cfg := core.Config{Method: core.ChiSquaredMethod, Seed: 7, DisableFallback: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cube := primedCube(b, tab, attrs)
		b.StartTimer()
		if _, err := core.DiscoverCovariates(context.Background(), cube, attrs[0], attrs[1:], nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6dCDWithCube(b *testing.B) {
	benchCDWithCube(b, binaryTable(b, 8, 100000))
}

func BenchmarkFig8bCubeBuild12Attrs(b *testing.B) {
	tab := binaryTable(b, 12, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primedCube(b, tab, tab.Columns())
	}
}

func BenchmarkFig8bCDWithCube12Attrs(b *testing.B) {
	benchCDWithCube(b, binaryTable(b, 12, 50000))
}

// ---------------------------------------------------------------------------
// Fig 8(a): accuracy — measured as verdict throughput here; the F1 series
// comes from cmd/experiments fig8a

func BenchmarkFig8aHyMITVerdicts(b *testing.B) {
	tab := fixture(b, "random-sparse8a", func() (*dataset.Table, error) {
		t, _, err := datagen.Random(datagen.RandomSpec{
			Nodes: 6, AvgDegree: 2.5, MinCard: 3, MaxCard: 6, Alpha: 0.35, Rows: 15000, Seed: 31,
		})
		return t, err
	})
	attrs := tab.Columns()
	tester := independence.HyMIT{Permutations: 200, Seed: 1, Est: stats.MillerMadow, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 1; j < len(attrs); j++ {
			if _, err := tester.Test(context.Background(), mem.New(tab), attrs[0], attrs[j], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Listing 2/3: rewriting itself (execution + SQL rendering)

func BenchmarkListing2RewriteExecution(b *testing.B) {
	tab := flightSmall(b)
	q := datagen.FlightQuery()
	cov := datagen.FlightCovariates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.RewriteTotal(context.Background(), mem.New(tab), q, cov); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListing3SQLRendering(b *testing.B) {
	q := datagen.FlightQuery()
	cov := datagen.FlightCovariates()
	for i := 0; i < b.N; i++ {
		_ = q.RewrittenSQL(cov)
	}
}

// ---------------------------------------------------------------------------
// Storage backends: in-memory vs SQL count pushdown
//
// BenchmarkCountsMemVsSQL tracks the overhead of the sqldb backend (served
// by the in-process memsql driver, so the numbers isolate the backend stack
// from network and DBMS costs) against the mem backend on the two paths the
// engine leans on: the dictionary-coded group-by count a contingency table
// is built from, and one cold end-to-end Analyze.

func BenchmarkCountsMemVsSQL(b *testing.B) {
	tab := flightSmall(b)
	q := datagen.FlightQuery()
	countAttrs := []string{"Airport", "Carrier", "Delayed"}
	memsql.Register("bench_flight", tab)
	b.Cleanup(func() { memsql.Unregister("bench_flight") })

	openSQLRel := func(b *testing.B) *sqldb.Relation {
		b.Helper()
		conn, err := memsql.Open("")
		if err != nil {
			b.Fatal(err)
		}
		rel, err := sqldb.Open(context.Background(), conn, "bench_flight")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rel.Close() })
		return rel
	}

	// Contingency-table input: one group-by count over (Z, X, Y). A fresh
	// handle per iteration defeats the per-handle count cache, so the cost
	// measured is the backend round trip, not the memo.
	b.Run("counts/mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel := mem.New(tab)
			if _, err := rel.Counts(context.Background(), countAttrs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Dense form: the contingency-table consumers (MIT group tables, the
	// entropy providers) read this flat tabulation directly, skipping the
	// sparse map entirely.
	b.Run("counts/mem-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel := mem.New(tab)
			dc, err := rel.DenseCounts(context.Background(), countAttrs, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			if dc == nil {
				b.Fatal("dense tabulation over budget")
			}
		}
	})
	b.Run("counts/sqldb", func(b *testing.B) {
		b.ReportAllocs()
		conn, err := memsql.Open("")
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < b.N; i++ {
			rel, err := sqldb.Open(context.Background(), conn, "bench_flight")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rel.Counts(context.Background(), countAttrs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cold end-to-end Analyze per backend (fresh session handle each
	// iteration, so covariate discovery runs every time).
	opts := []hypdb.Option{hypdb.WithSeed(7), hypdb.WithPermutations(100), hypdb.WithParallel(true)}
	b.Run("analyze/mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hypdb.Open(tab).Analyze(context.Background(), q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyze/sqldb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel := openSQLRel(b)
			if _, err := hypdb.OpenSource(rel).Analyze(context.Background(), q, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func excludeOf(items []string, drop string) []string {
	out := make([]string, 0, len(items))
	for _, x := range items {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

// BenchmarkShardedCounts measures the partition-parallel count fan-out on
// the Fig 6 CD workload's dominant query — one dense group-by over the
// full attribute closure of the 50k-row random table — as the shard count
// grows. shards=1 is the degenerate baseline (fan-out machinery, no
// parallelism); the mem backend's single-pass tabulation is the reference.
func BenchmarkShardedCounts(b *testing.B) {
	tab := randomTable(b, 50000)
	attrs := tab.Columns()
	b.Run("mem", func(b *testing.B) {
		rel := mem.New(tab)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rel.DenseCounts(context.Background(), attrs, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			rel, err := sharded.Partition(tab, "bench_sharded", n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rel.DenseCounts(context.Background(), attrs, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedAppendVsReload contrasts streaming ingestion with the
// naive alternative. "append" streams a 1000-row batch into a primed
// 4-shard session and re-runs the closure count: the count cache patches
// its views with the batch's delta counts. "reload" rebuilds the sharded
// relation and re-primes from scratch — what every new batch would cost
// without versioned snapshots and delta application.
func BenchmarkShardedAppendVsReload(b *testing.B) {
	tab := randomTable(b, 50000)
	attrs := tab.Columns()
	const batch = 1000
	rows := make([][]string, batch)
	for i := range rows {
		row := make([]string, len(attrs))
		for j, a := range attrs {
			c, err := tab.Column(a)
			if err != nil {
				b.Fatal(err)
			}
			row[j] = c.Value(i)
		}
		rows[i] = row
	}

	b.Run("append", func(b *testing.B) {
		rel, err := sharded.Partition(tab, "bench_append", 4)
		if err != nil {
			b.Fatal(err)
		}
		cc := countcache.Wrap(rel, 0)
		if err := cc.Prime(context.Background(), attrs, 0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cc.Append(context.Background(), rows); err != nil {
				b.Fatal(err)
			}
			if _, err := cc.Counts(context.Background(), attrs, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := cc.Stats(); st.Fetches != 1 {
			b.Fatalf("append path fetched the backend %d times, want 1 (the prime)", st.Fetches)
		}
	})
	b.Run("reload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rel, err := sharded.Partition(tab, "bench_reload", 4)
			if err != nil {
				b.Fatal(err)
			}
			cc := countcache.Wrap(rel, 0)
			if err := cc.Prime(context.Background(), attrs, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := cc.Counts(context.Background(), attrs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRestrictAfterAppends restricts a 2-shard Adult table and
// tabulates the restriction after k appends of 50 rows, as a served
// analysis does. Append merges its deltas size-tiered, so a read fans out
// over popcount(k) deltas and the cost does not grow linearly in k.
func BenchmarkRestrictAfterAppends(b *testing.B) {
	tab := fixture(b, "adult", func() (*dataset.Table, error) { return datagen.Adult(12000, 1) })
	attrs := tab.Columns()
	row := func(i int) []string {
		r := make([]string, len(attrs))
		for j, a := range attrs {
			r[j] = tab.MustColumn(a).Value(i % tab.NumRows())
		}
		return r
	}
	where := dataset.In{Attr: "Race", Values: []string{"White"}}
	counted := []string{"Sex", "Income", "Education", "Occupation"}
	for _, k := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("appends=%d", k), func(b *testing.B) {
			rel, err := sharded.Partition(tab, "bench_restrict", 2)
			if err != nil {
				b.Fatal(err)
			}
			for a := 0; a < k; a++ {
				batch := make([][]string, 50)
				for i := range batch {
					batch[i] = row(a*50 + i)
				}
				if _, err := rel.Append(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := rel.Restrict(context.Background(), where)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := source.Dense(context.Background(), view, counted, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchPlanVsNaive measures AnalyzeAll's batch prime against
// naive per-request priming on a heterogeneous 8-request batch: mixed
// grouped and ungrouped queries over distinct treatments, whose
// covariate-discovery closures and run sets differ (12 demands, 9 distinct
// closures), so the one prime over their union replaces several fetches
// rather than deduplicating one closure. A fresh session handle per
// iteration keeps every run cold — the cost compared is the priming
// traffic, not the memo.
func BenchmarkBatchPlanVsNaive(b *testing.B) {
	tab := randomTable(b, 20000)
	attrs := tab.Columns()
	queries := make([]hypdb.Query, 0, 8)
	for i := 0; i < 8; i++ {
		q := hypdb.Query{
			Treatment: attrs[i%len(attrs)],
			Outcomes:  []string{attrs[(i+1)%len(attrs)]},
		}
		if i%2 == 0 {
			q.Groupings = []string{attrs[(i+3)%len(attrs)]}
		}
		queries = append(queries, q)
	}
	memsql.Register("bench_batchplan", tab)
	b.Cleanup(func() { memsql.Unregister("bench_batchplan") })

	run := func(b *testing.B, open func(b *testing.B) *hypdb.DB, planned bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := open(b)
			opts := []hypdb.Option{hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(7)}
			if !planned {
				opts = append(opts, hypdb.WithPlanner(false))
			}
			if _, err := db.AnalyzeAll(context.Background(), queries, opts...); err != nil {
				b.Fatal(err)
			}
			if planned && db.Stats().Planner.Plans == 0 {
				b.Fatal("the batch was not primed")
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	openMem := func(b *testing.B) *hypdb.DB { return hypdb.Open(tab) }
	openSQL := func(b *testing.B) *hypdb.DB {
		b.Helper()
		conn, err := memsql.Open("")
		if err != nil {
			b.Fatal(err)
		}
		db, err := hypdb.OpenSQL(context.Background(), conn, "bench_batchplan")
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("mem/naive", func(b *testing.B) { run(b, openMem, false) })
	b.Run("mem/planned", func(b *testing.B) { run(b, openMem, true) })
	b.Run("sqldb/naive", func(b *testing.B) { run(b, openSQL, false) })
	b.Run("sqldb/planned", func(b *testing.B) { run(b, openSQL, true) })
}
