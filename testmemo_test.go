package hypdb_test

// Test-memo equivalence: every count-cache view keeps the independence
// tests run on it and serves identical later requests from that memo. A
// test result is a pure function of the view's counts and the settings in
// its key, so the memo is a cost optimization only: reports must be
// byte-identical with the memo present (a session handle), absent (the
// engine over a bare relation) and switched off (DisableEntropyCache), on
// every backend and worker count. The memo's hit/miss counters also pin
// how many tests an audit sweep actually executes.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypdb"
	"hypdb/internal/core"
	"hypdb/internal/countcache"
	"hypdb/internal/dag"
	"hypdb/internal/datagen"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sharded"
)

// memoModes are the three ways a run can meet the memo.
var memoModes = []string{"memo", "bare", "off"}

// memoBackend opens a session handle (memo present) or a bare relation
// (no count cache, so no memo) over one table; SQL tables are registered
// under name, which reports carry.
type memoBackend struct {
	name    string
	session func(t *testing.T, name string, tab *hypdb.Table) *hypdb.DB
	bare    func(t *testing.T, name string, tab *hypdb.Table) source.Relation
}

var memoBackends = []memoBackend{
	{
		"mem",
		func(_ *testing.T, _ string, tab *hypdb.Table) *hypdb.DB { return hypdb.Open(tab) },
		func(_ *testing.T, _ string, tab *hypdb.Table) source.Relation { return mem.New(tab) },
	},
	{
		"sqldb",
		func(t *testing.T, name string, tab *hypdb.Table) *hypdb.DB { return sqlBackedDB(t, name, tab) },
		func(t *testing.T, name string, tab *hypdb.Table) source.Relation { return openSQLBacked(t, name, tab) },
	},
	{
		"sharded",
		func(_ *testing.T, _ string, tab *hypdb.Table) *hypdb.DB { return hypdb.Open(tab, hypdb.WithShards(2)) },
		func(t *testing.T, _ string, tab *hypdb.Table) source.Relation {
			sh, err := sharded.Partition(tab, "D", 2)
			if err != nil {
				t.Fatal(err)
			}
			return sh
		},
	},
}

// cdTally sums CDResult.Tests over the discoveries a run executes — the
// tests the algorithms request, which the memo must not change.
type cdTally struct {
	mu    sync.Mutex
	tests int
}

func (c *cdTally) hook(ctx context.Context, view source.Relation, target string, candidates, outcomes []string, cfg core.Config) (*core.CDResult, error) {
	res, err := core.DiscoverCovariates(ctx, view, target, candidates, outcomes, cfg)
	if err == nil {
		c.mu.Lock()
		c.tests += res.Tests
		c.mu.Unlock()
	}
	return res, err
}

// auditNet10 samples the audit-sqldb workload's Bayes net: 10 nodes of
// cardinality 2-4, average degree 2.5, structure and CPTs from seed 21.
func auditNet10(t *testing.T, rows int, seed int64) *hypdb.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	g, err := dag.RandomDAGAvgDegree(rng, 10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := dag.RandomBayesNet(rng, g, 2, 4, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(seed)), rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// canonicalJSON renders v, plus the fields the wire schema leaves out, with
// empty lists as null: a session handle hands out copies of its memoized
// discoveries, which turn empty parent lists into nil, while the bare
// engine returns them empty.
func canonicalJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(struct{ Report, Hidden any }{v, wireHidden(v)})
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	var walk func(any) any
	walk = func(n any) any {
		switch v := n.(type) {
		case []any:
			if len(v) == 0 {
				return nil
			}
			for i := range v {
				v[i] = walk(v[i])
			}
		case map[string]any:
			for k := range v {
				v[k] = walk(v[k])
			}
		}
		return n
	}
	if b, err = json.Marshal(walk(tree)); err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTestMemoByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis and audit matrix over three backends in -short mode")
	}
	ctx := context.Background()
	berkeley, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	staples, err := datagen.Staples(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := auditNet10(t, 7000, 1)
	flightSlice := datagen.FlightQuery()
	flightSlice.Where = hypdb.And{
		hypdb.In{Attr: "Carrier", Values: []string{"AA", "UA"}},
		hypdb.In{Attr: "Airport", Values: []string{"COS", "ROC"}},
	}

	type run struct {
		report string
		tests  int
		memo   countcache.Stats
	}
	type memoCase struct {
		name string
		tab  *hypdb.Table
		cfg  core.Config
		// exec runs the case on a session handle (db) or, when db is nil,
		// on the bare relation, returning the report with wall-clock
		// fields zeroed.
		exec func(t *testing.T, db *hypdb.DB, bare source.Relation, o core.Options) string
		// workers is the sweep's worker count; zero marks an analysis.
		// Sweeps pin the executed-test budget.
		workers int
	}
	analyze := func(q hypdb.Query) func(*testing.T, *hypdb.DB, source.Relation, core.Options) string {
		return func(t *testing.T, db *hypdb.DB, bare source.Relation, o core.Options) string {
			var rep *hypdb.Report
			var err error
			if db != nil {
				rep, err = db.Analyze(ctx, q, hypdb.WithOptions(o))
			} else {
				rep, err = core.Analyze(ctx, bare, q, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			rep.Timing = core.Timing{}
			return canonicalJSON(t, rep)
		}
	}
	audit := func(workers int) func(*testing.T, *hypdb.DB, source.Relation, core.Options) string {
		return func(t *testing.T, db *hypdb.DB, bare source.Relation, o core.Options) string {
			spec := hypdb.AuditSpec{Workers: workers}
			var rep *hypdb.AuditReport
			var err error
			if db != nil {
				rep, err = db.Audit(ctx, spec, hypdb.WithOptions(o))
			} else {
				rep, err = core.Audit(ctx, bare, spec, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			rep.Elapsed = 0
			return canonicalJSON(t, rep)
		}
	}
	chi2 := core.Config{Method: core.ChiSquaredMethod, Seed: 7}
	hymit := core.Config{Seed: 7, Permutations: 100}
	cases := []memoCase{
		{name: "analyze/berkeley", tab: berkeley, cfg: core.Config{Seed: 1}, exec: analyze(datagen.BerkeleyQuery())},
		{name: "analyze/staples", tab: staples, cfg: core.Config{Seed: 1}, exec: analyze(datagen.StaplesQuery())},
		{name: "analyze/flight-fig1", tab: flight, cfg: core.Config{Seed: 1, Permutations: 200, Parallel: true}, exec: analyze(datagen.FlightQuery())},
		{name: "analyze/flight-cos-roc", tab: flight, cfg: core.Config{Seed: 1, Permutations: 200, Parallel: true}, exec: analyze(flightSlice)},
		{name: "audit/chi2/workers1", tab: net, cfg: chi2, exec: audit(1), workers: 1},
		{name: "audit/chi2/workers4", tab: net, cfg: chi2, exec: audit(4), workers: 4},
		{name: "audit/hymit/workers1", tab: net, cfg: hymit, exec: audit(1), workers: 1},
		{name: "audit/hymit/workers4", tab: net, cfg: hymit, exec: audit(4), workers: 4},
	}

	for ci, c := range cases {
		for _, be := range memoBackends {
			t.Run(c.name+"/"+be.name, func(t *testing.T) {
				name := fmt.Sprintf("memo_%d", ci)
				runs := make(map[string]run, len(memoModes))
				for _, mode := range memoModes {
					o := core.Options{Config: c.cfg}
					o.DisableEntropyCache = mode == "off"
					tally := &cdTally{}
					if c.workers > 0 {
						o.Discover = tally.hook
					}
					var r run
					if mode == "bare" {
						r.report = c.exec(t, nil, be.bare(t, name, c.tab), o)
					} else {
						db := be.session(t, name, c.tab)
						r.report = c.exec(t, db, nil, o)
						r.memo = db.Relation().(*countcache.Relation).Stats()
					}
					r.tests = tally.tests
					runs[mode] = r
				}
				want := runs["bare"]
				for _, mode := range []string{"memo", "off"} {
					if got := runs[mode]; got.report != want.report {
						t.Fatalf("%s report differs from the bare relation's\n got: %s\nwant: %s", mode, got.report, want.report)
					}
					if got := runs[mode]; got.tests != want.tests {
						t.Errorf("%s requested %d CD tests, bare %d: the memo must not change the requested count", mode, got.tests, want.tests)
					}
				}
				if off := runs["off"].memo; off.MemoHits+off.MemoMisses+off.KeyHits+off.KeyMisses+off.MemoEntries != 0 {
					t.Errorf("DisableEntropyCache still consulted the memo: %+v", off)
				}
				on := runs["memo"].memo
				if on.MemoHits == 0 {
					t.Errorf("the session handle's memo served no test: %+v", on)
				}
				if c.workers == 0 {
					return
				}
				// The executed-test budget: every miss runs one test or draws
				// one attribute's key subsamples. Sequential sweeps over an
				// unversioned root miss each distinct key exactly once
				// (sharded pins keep their own ledger, and concurrent workers
				// may race on a key).
				if be.name != "sharded" && c.workers == 1 && on.MemoMisses+on.KeyMisses != on.MemoEntries {
					t.Errorf("misses %d + %d != distinct keys %d", on.MemoMisses, on.KeyMisses, on.MemoEntries)
				}
				if requested := want.tests; on.MemoMisses*4 > requested {
					t.Errorf("the sweep executed %d of %d requested CD tests; want ≤ ¼", on.MemoMisses, requested)
				}
				// Every screen of the sweep runs on one view, so the key
				// detector samples each attribute once; without the memo
				// each screen redraws every candidate.
				if attrs := len(c.tab.Columns()); c.workers == 1 && on.KeyMisses != attrs {
					t.Errorf("the sweep drew key subsamples %d times over %d attributes; want once each", on.KeyMisses, attrs)
				}
				t.Logf("requested %d CD tests, executed %d (%d hits, %d distinct keys); key entropies drawn %d of %d requested",
					want.tests, on.MemoMisses, on.MemoHits, on.MemoEntries, on.KeyMisses, on.KeyMisses+on.KeyHits)
			})
		}
	}
}

// TestCDMemoSharedAcrossParallel pins that WithParallel, which changes no
// p-value, does not split the session's covariate-discovery memo: the same
// query with Parallel on, then off, recomputes nothing and reports the same
// bytes.
func TestCDMemoSharedAcrossParallel(t *testing.T) {
	ctx := context.Background()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	q := datagen.BerkeleyQuery()
	on, err := db.Analyze(ctx, q, hypdb.WithSeed(1), hypdb.WithParallel(true))
	if err != nil {
		t.Fatal(err)
	}
	first := db.Stats()
	off, err := db.Analyze(ctx, q, hypdb.WithSeed(1), hypdb.WithParallel(false))
	if err != nil {
		t.Fatal(err)
	}
	second := db.Stats()
	if second.CDComputes != first.CDComputes || second.CDHits != first.CDHits+first.CDComputes {
		t.Errorf("Parallel off re-ran covariate discovery: %+v after %+v", second, first)
	}
	if a, b := normalizedReport(t, on), normalizedReport(t, off); a != b {
		t.Errorf("reports differ with Parallel on and off\n  on: %s\n off: %s", a, b)
	}
}

// TestParallelAnalyzeIdentical pins that WithParallel, which runs one
// analysis's covariate and mediator discoveries and each discovery's
// boundary searches concurrently, changes nothing but the wall clock: on
// fresh handles the report bytes, every discovery's test counts and the
// memo's executed tests and key draws are those of the serial run, so no
// test runs twice and no subsample is drawn twice.
func TestParallelAnalyzeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("four analyses, twice each, in -short mode")
	}
	ctx := context.Background()
	berkeley, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	staples, err := datagen.Staples(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The flight-cos-roc slice of TestTestMemoByteIdentical.
	flightSlice := datagen.FlightQuery()
	flightSlice.Where = hypdb.And{
		hypdb.In{Attr: "Carrier", Values: []string{"AA", "UA"}},
		hypdb.In{Attr: "Airport", Values: []string{"COS", "ROC"}},
	}
	cases := []struct {
		name string
		tab  *hypdb.Table
		q    hypdb.Query
		opts []hypdb.Option
	}{
		{"flight-fig1", flight, datagen.FlightQuery(), []hypdb.Option{hypdb.WithSeed(1), hypdb.WithPermutations(200)}},
		{"flight-cos-roc", flight, flightSlice, []hypdb.Option{hypdb.WithSeed(1), hypdb.WithPermutations(200)}},
		{"berkeley", berkeley, datagen.BerkeleyQuery(), []hypdb.Option{hypdb.WithSeed(1)}},
		{"staples", staples, datagen.StaplesQuery(), []hypdb.Option{hypdb.WithSeed(1)}},
	}
	type run struct {
		report string
		tests  [][3]int // Tests, TestsBoundary, TestsPhases per discovery
		memo   countcache.Stats
	}
	analyze := func(t *testing.T, tab *hypdb.Table, q hypdb.Query, opts []hypdb.Option) run {
		db := hypdb.Open(tab)
		rep, err := db.Analyze(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := run{report: normalizedReport(t, rep), memo: db.Relation().(*countcache.Relation).Stats()}
		cds := []*hypdb.CDResult{rep.CD}
		for _, y := range q.Outcomes {
			cds = append(cds, rep.MediatorCD[y])
		}
		for _, cd := range cds {
			if cd == nil {
				t.Fatal("the analysis skipped a discovery")
			}
			r.tests = append(r.tests, [3]int{cd.Tests, cd.TestsBoundary, cd.TestsPhases})
		}
		return r
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			on := analyze(t, c.tab, c.q, append(c.opts, hypdb.WithParallel(true)))
			off := analyze(t, c.tab, c.q, append(c.opts, hypdb.WithParallel(false)))
			if on.report != off.report {
				t.Errorf("reports differ with Parallel on and off\n  on: %s\n off: %s", on.report, off.report)
			}
			if !slices.Equal(on.tests, off.tests) {
				t.Errorf("discovery tests (total, boundary, phases) = %v with Parallel, %v without", on.tests, off.tests)
			}
			if on.memo.MemoMisses != off.memo.MemoMisses || on.memo.KeyMisses != off.memo.KeyMisses {
				t.Errorf("executed tests %d, key draws %d with Parallel; %d, %d without",
					on.memo.MemoMisses, on.memo.KeyMisses, off.memo.MemoMisses, off.memo.KeyMisses)
			}
			t.Logf("discovery tests %v; executed %d tests, %d key draws", off.tests, off.memo.MemoMisses, off.memo.KeyMisses)
		})
	}
}
