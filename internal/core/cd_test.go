package core

import (
	"context"

	"math/rand"
	"reflect"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/dag"
	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

// colliderData samples Z → T ← W, T → Y with strong CPTs.
func colliderData(t *testing.T, n int, seed int64) (*dataset.Table, *dag.DAG) {
	t.Helper()
	g := dag.MustNew("Z", "W", "T", "Y")
	g.MustAddEdge("Z", "T")
	g.MustAddEdge("W", "T")
	g.MustAddEdge("T", "Y")
	bn, err := dag.NewBayesNet(g, []int{2, 2, 2, 2}, [][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
		{0.9, 0.1, 0.4, 0.6, 0.3, 0.7, 0.05, 0.95},
		{0.9, 0.1, 0.1, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	return tab, g
}

// chainData samples A → T → Y (single parent: CD must fall back).
func chainData(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	g := dag.MustNew("A", "T", "Y")
	g.MustAddEdge("A", "T")
	g.MustAddEdge("T", "Y")
	bn, err := dag.NewBayesNet(g, []int{2, 2, 2}, [][]float64{
		{0.5, 0.5},
		{0.85, 0.15, 0.2, 0.8},
		{0.9, 0.1, 0.15, 0.85},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestDiscoverCovariatesCollider(t *testing.T) {
	tab, _ := colliderData(t, 20000, 1)
	for _, method := range []TestMethod{ChiSquaredMethod, HyMITMethod} {
		cfg := Config{Method: method, Seed: 7}
		res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"Z", "W"}, []string{"Y"}, cfg)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !reflect.DeepEqual(res.Parents, []string{"W", "Z"}) {
			t.Errorf("%v: Parents(T) = %v, want [W Z]", method, res.Parents)
		}
		if res.UsedFallback {
			t.Errorf("%v: fallback used despite two discoverable parents", method)
		}
		if res.Tests == 0 {
			t.Errorf("%v: no tests counted", method)
		}
	}
}

func TestDiscoverCovariatesColliderWithOutcomeCandidate(t *testing.T) {
	// Including the outcome among candidates must not pollute the parents:
	// children fail condition (a).
	tab, _ := colliderData(t, 20000, 2)
	res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"Z", "W", "Y"}, []string{"Y"}, Config{Method: ChiSquaredMethod})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(res.Parents, "Y") {
		t.Errorf("outcome discovered as parent: %v", res.Parents)
	}
	if !containsStr(res.Parents, "Z") || !containsStr(res.Parents, "W") {
		t.Errorf("Parents(T) = %v, want Z and W", res.Parents)
	}
	if !containsStr(res.Boundary, "Y") {
		t.Errorf("MB(T) = %v missing the child Y", res.Boundary)
	}
}

func TestDiscoverCovariatesFallbackSingleParent(t *testing.T) {
	tab := chainData(t, 15000, 3)
	res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"A", "Y"}, []string{"Y"}, Config{Method: ChiSquaredMethod})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedFallback {
		t.Error("single-parent case did not trigger the fallback")
	}
	if !reflect.DeepEqual(res.Parents, []string{"A"}) {
		t.Errorf("fallback covariates = %v, want [A] (MB(T) − outcomes)", res.Parents)
	}
}

func TestDiscoverCovariatesIndependentTreatment(t *testing.T) {
	// Randomized treatment: no boundary, no covariates, no fallback junk.
	rng := rand.New(rand.NewSource(4))
	b := dataset.NewBuilder("T", "N1", "N2")
	for i := 0; i < 5000; i++ {
		b.MustAdd(itoa(rng.Intn(2)), itoa(rng.Intn(3)), itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"N1", "N2"}, nil, Config{Method: ChiSquaredMethod})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Boundary) != 0 || len(res.Parents) != 0 {
		t.Errorf("independent treatment: MB=%v parents=%v, want empty", res.Boundary, res.Parents)
	}
}

func TestDiscoverCovariatesSpouseExcluded(t *testing.T) {
	// Z → T ← W plus spouse D of T via child C: T → C ← D. Phase II must
	// keep only Z, W.
	g := dag.MustNew("Z", "W", "T", "C", "D")
	g.MustAddEdge("Z", "T")
	g.MustAddEdge("W", "T")
	g.MustAddEdge("T", "C")
	g.MustAddEdge("D", "C")
	bn, err := dag.NewBayesNet(g, []int{2, 2, 2, 2, 2}, [][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
		{0.9, 0.1, 0.4, 0.6, 0.3, 0.7, 0.05, 0.95},
		{0.9, 0.1, 0.45, 0.55, 0.35, 0.65, 0.05, 0.95},
		{0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(5)), 30000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"Z", "W", "C", "D"}, nil, Config{Method: ChiSquaredMethod})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(res.Parents, "D") || containsStr(res.Parents, "C") {
		t.Errorf("non-parent in covariates: %v", res.Parents)
	}
	if !containsStr(res.Parents, "Z") || !containsStr(res.Parents, "W") {
		t.Errorf("Parents(T) = %v, want Z and W", res.Parents)
	}
}

func TestDiscoverCovariatesMaterializationMatchesScan(t *testing.T) {
	ctx := context.Background()
	tab, _ := colliderData(t, 10000, 6)
	base := Config{Method: ChiSquaredMethod}
	noMat := base
	noMat.DisableMaterialization = true
	noCache := base
	noCache.DisableEntropyCache = true
	primed := countcache.Wrap(mem.New(tab), 0)
	if err := primed.Prime(ctx, tab.Columns(), 0); err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		rel  source.Relation
		cfg  Config
	}{
		{"both optimizations", mem.New(tab), base},
		{"no materialization", mem.New(tab), noMat},
		{"no entropy cache", mem.New(tab), noCache},
		{"pre-primed count cache", primed, base},
	}
	var want *CDResult
	for _, v := range variants {
		got, err := DiscoverCovariates(ctx, v.rel, "T", []string{"Z", "W"}, []string{"Y"}, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed the answer: %+v, want %+v", v.name, got, want)
		}
	}
}

// TestDiscoverCovariatesSearchMemo pins the view memo's discovery
// searches: a second discovery on one view, over the same candidates in
// another order, reruns only the orderings of its reordered candidate
// lists and serves every grow/shrink and phase search from the memo, and
// both equal a discovery on the bare relation, test counts included.
func TestDiscoverCovariatesSearchMemo(t *testing.T) {
	ctx := context.Background()
	tab, _ := colliderData(t, 20000, 1)
	cands := []string{"Z", "W", "Y"}
	reordered := []string{"Y", "W", "Z"}
	for _, cfg := range []Config{{Method: ChiSquaredMethod, Seed: 7}, {Seed: 7, Permutations: 200}} {
		view := countcache.Wrap(mem.New(tab), 0)
		first, err := DiscoverCovariates(ctx, view, "T", cands, []string{"Y"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hits1, misses1 := view.Memo().Tally(countcache.Searches)
		second, err := DiscoverCovariates(ctx, view, "T", reordered, []string{"Y"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hits2, misses2 := view.Memo().Tally(countcache.Searches)
		bare, err := DiscoverCovariates(ctx, mem.New(tab), "T", cands, []string{"Y"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.TestsPhases == 0 {
			t.Fatalf("%v: no phase search ran: %+v", cfg.Method, first)
		}
		if !reflect.DeepEqual(first, bare) || !reflect.DeepEqual(second, bare) {
			t.Errorf("%v: memoized discoveries differ from the bare relation's\nfirst:  %+v\nsecond: %+v\nbare:   %+v", cfg.Method, first, second, bare)
		}
		if hits1 != 0 {
			t.Errorf("%v: the first discovery served %d searches from an empty memo", cfg.Method, hits1)
		}
		// One ordering for T and one per member of MB(T).
		if reruns, want := misses2-misses1, 1+len(first.Boundary); reruns != want || hits2 == 0 {
			t.Errorf("%v: the second discovery ran %d searches and served %d; want %d orderings run and the rest served", cfg.Method, reruns, hits2, want)
		}
	}
}

func TestDiscoverCovariatesMaxCondSet(t *testing.T) {
	tab, _ := colliderData(t, 5000, 7)
	res, err := DiscoverCovariates(context.Background(), mem.New(tab), "T", []string{"Z", "W"}, []string{"Y"},
		Config{Method: ChiSquaredMethod, MaxCondSet: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parents) == 0 {
		t.Error("capped CD found nothing on an easy instance")
	}
}

func TestDiscoverCovariatesValidation(t *testing.T) {
	tab, _ := colliderData(t, 100, 8)
	if _, err := DiscoverCovariates(context.Background(), mem.New(tab), "missing", []string{"Z"}, nil, Config{}); err == nil {
		t.Error("missing target accepted")
	}
}

func itoa(v int) string { return string(rune('0' + v)) }
