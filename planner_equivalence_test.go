package hypdb_test

// Batch-prime equivalence matrix: AnalyzeAll's batch prime (one finest
// group-by per view over the union of the batch's closures, or its widest
// prefix that fits the cell budget) is a cost optimization only, so reports
// produced through it must be byte-identical to the unprimed per-request
// path on every storage backend — and both must still match the
// paper-reproduction golden files. Berkeley's union fits the budget, so its
// queries skip their own priming; Staples' and Flight's do not, so they
// prime their own closures under the batch's prefix. The batches run
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

// checkPlannerEquivalence runs one dataset's query as a primed batch and
// as the unprimed path on every backend, requiring byte-identical reports
// and golden agreement. A non-nil want pins the primed session's stats.
func checkPlannerEquivalence(t *testing.T, dataset, golden string, tab *hypdb.Table, q hypdb.Query, want *hypdb.PlannerStats, opts ...hypdb.Option) {
	t.Helper()
	ctx := context.Background()
	for backend, open := range plannerBackends(t, dataset, tab) {
		t.Run(backend, func(t *testing.T) {
			// Unprimed reference: same entry point, batch prime off.
			off := open("off")
			refReps, err := off.AnalyzeAll(ctx, []hypdb.Query{q},
				append([]hypdb.Option{hypdb.WithPlanner(false)}, opts...)...)
			if err != nil {
				t.Fatalf("unprimed AnalyzeAll: %v", err)
			}
			ref := normalizedReport(t, refReps[0])
			if off.Stats().Planner.Plans != 0 {
				t.Fatal("WithPlanner(false) still primed the batch")
			}

			// Primed: a replicated batch over a worker pool, so the
			// batch's primed cuboid serves concurrent queries (the -race
			// surface).
			on := open("on")
			reps, err := on.AnalyzeAll(ctx, []hypdb.Query{q, q, q},
				append([]hypdb.Option{hypdb.WithWorkers(3)}, opts...)...)
			if err != nil {
				t.Fatalf("primed AnalyzeAll: %v", err)
			}
			for i, rep := range reps {
				if got := normalizedReport(t, rep); got != ref {
					t.Fatalf("primed report %d differs from unprimed path\n got: %s\nwant: %s", i, got, ref)
				}
			}
			// The batch must have primed a cuboid: a batch that primed
			// nothing silently degrades the backend to the per-request
			// path. Over-budget unions still prime their widest prefix.
			ps := on.Stats().Planner
			if ps.Plans == 0 || ps.Cuboids == 0 {
				t.Errorf("primed batch primed no cuboid: %+v", ps)
			}
			if want != nil && ps != *want {
				t.Errorf("primed batch stats %+v, want %+v", ps, *want)
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
	// The three replicated queries share one closure, the whole schema, so
	// the one prime saves no round trip over per-request priming.
	checkPlannerEquivalence(t, "BerkeleyData", "berkeley.golden.json", tab,
		datagen.BerkeleyQuery(), &hypdb.PlannerStats{Plans: 1, Cuboids: 1, RoundTripsSaved: 0}, hypdb.WithSeed(1))
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
		datagen.StaplesQuery(), nil, hypdb.WithSeed(1))
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
		datagen.FlightQuery(), nil, hypdb.WithSeed(1), hypdb.WithPermutations(200))
}
