package hypdb_test

// Planner equivalence matrix: the lattice-aware batch planner is a cost
// optimization only, so reports produced through it must be byte-identical
// to the unplanned per-request path on every storage backend — and both
// must still match the paper-reproduction golden files. The batches run
// replicated queries over a worker pool, so under -race this also
// exercises the primed cuboids serving concurrent queries. The golden
// queries restrict only by their WHERE clause, and no view cached at the
// session root covers its attributes, so on both paths every restricted
// view is answered by the backend: no restricted view is sliced out of a
// cached cuboid here. TestRestrictSliceMatchesBackend (internal/countcache)
// compares slices with the backend, and TestSessionSlicesRestrictedViews
// pins them on a batch-and-audit session, where both paths slice.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"hypdb"
	"hypdb/internal/datagen"
)

// normalizedReport strips per-run wall-clock noise (the Timing block) so
// two reports can be compared byte for byte, including the fields the wire
// schema leaves out.
func normalizedReport(t *testing.T, rep *hypdb.Report) string {
	t.Helper()
	cp := *rep
	var zero hypdb.Report
	cp.Timing = zero.Timing
	b, err := json.Marshal(struct{ Report, Hidden any }{&cp, wireHidden(&cp)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wireHidden collects the report fields the /v1 wire schema leaves out
// (`json:"-"`), so helpers that compare reports through json.Marshal still
// compare them.
func wireHidden(v any) any {
	switch r := v.(type) {
	case *hypdb.Report:
		var h struct {
			BiasRows []int
			Kinds    []int
		}
		for _, b := range slices.Concat(r.BiasTotal, r.BiasDirect) {
			h.BiasRows = append(h.BiasRows, b.Rows)
		}
		for _, rw := range []*hypdb.Rewritten{r.RewrittenTotal, r.RewrittenDirect} {
			if rw != nil {
				h.Kinds = append(h.Kinds, int(rw.Kind))
			}
		}
		return h
	case *hypdb.AuditReport:
		var h struct {
			Queries []hypdb.Query
			CDTests []int
		}
		for _, f := range r.Findings {
			h.Queries = append(h.Queries, f.Query)
			h.CDTests = append(h.CDTests, f.CDTests)
		}
		return h
	}
	return nil
}

// plannerBackends enumerates the storage backends of the equivalence
// matrix; each opener returns a fresh session handle so the two paths
// cannot share covariate-discovery memos.
func plannerBackends(t *testing.T, dataset string, tab *hypdb.Table) map[string]func(tag string) *hypdb.DB {
	t.Helper()
	return map[string]func(tag string) *hypdb.DB{
		"mem": func(string) *hypdb.DB {
			return hypdb.Open(tab)
		},
		"sqldb": func(tag string) *hypdb.DB {
			return sqlBackedDB(t, fmt.Sprintf("plan_%s_%s", dataset, tag), tab)
		},
		"sharded": func(string) *hypdb.DB {
			return hypdb.Open(tab, hypdb.WithShards(2))
		},
		"remote": func(string) *hypdb.DB {
			db, _ := openRemoteCluster(t, dataset, tab, 2)
			return db
		},
	}
}

// checkPlannerEquivalence runs one dataset's query as a planned batch and
// as the unplanned path on every backend, requiring byte-identical reports
// and golden agreement.
func checkPlannerEquivalence(t *testing.T, dataset, golden string, tab *hypdb.Table, q hypdb.Query, opts ...hypdb.Option) {
	t.Helper()
	ctx := context.Background()
	for backend, open := range plannerBackends(t, dataset, tab) {
		t.Run(backend, func(t *testing.T) {
			// Unplanned reference: same entry point, planner off.
			off := open("off")
			refReps, err := off.AnalyzeAll(ctx, []hypdb.Query{q},
				append([]hypdb.Option{hypdb.WithPlanner(false)}, opts...)...)
			if err != nil {
				t.Fatalf("unplanned AnalyzeAll: %v", err)
			}
			want := normalizedReport(t, refReps[0])
			if off.Stats().Planner.Plans != 0 {
				t.Fatal("WithPlanner(false) still executed a plan")
			}

			// Planned: a replicated batch over a worker pool, so one
			// plan's primed cuboids serve concurrent queries (the -race
			// surface).
			on := open("on")
			reps, err := on.AnalyzeAll(ctx, []hypdb.Query{q, q, q},
				append([]hypdb.Option{hypdb.WithWorkers(3)}, opts...)...)
			if err != nil {
				t.Fatalf("planned AnalyzeAll: %v", err)
			}
			for i, rep := range reps {
				if got := normalizedReport(t, rep); got != want {
					t.Fatalf("planned report %d differs from unplanned path\n got: %s\nwant: %s", i, got, want)
				}
			}
			// Plans alone is not enough: an executed plan that materialized
			// nothing (e.g. every view failing the Primer check) silently
			// degrades the backend to the per-request path. Wide closures
			// may legitimately end as trimmed best-effort cuboids with their
			// demands unassigned, so accept either covered demands or cells
			// actually primed.
			if ps := on.Stats().Planner; ps.Plans == 0 || (ps.DemandsPlanned == 0 && ps.CellsMaterialized == 0) {
				t.Errorf("planned batch neither covered demands nor primed cells: %+v", ps)
			}
			checkGolden(t, golden, summarize(dataset, tab.NumRows(), reps[0]))
		})
	}
}

func TestPlannerEquivalenceBerkeley(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannerEquivalence(t, "BerkeleyData", "berkeley.golden.json", tab,
		datagen.BerkeleyQuery(), hypdb.WithSeed(1))
}

func TestPlannerEquivalenceStaples(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row equivalence matrix in -short mode")
	}
	tab, err := datagen.Staples(50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannerEquivalence(t, "StaplesData", "staples.golden.json", tab,
		datagen.StaplesQuery(), hypdb.WithSeed(1))
}

func TestPlannerEquivalenceFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("12k-row equivalence matrix in -short mode")
	}
	tab, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannerEquivalence(t, "FlightData", "flight.golden.json", tab,
		datagen.FlightQuery(), hypdb.WithSeed(1), hypdb.WithPermutations(200))
}
