package independence

import (
	"context"

	"math"
	"strconv"
	"sync"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/stats"
	"hypdb/source/mem"
)

// TestMITSkipsUninformativeGroups: groups where X or Y is constant carry no
// permutation information and must not dilute the statistic.
func TestMITSkipsUninformativeGroups(t *testing.T) {
	b := dataset.NewBuilder("X", "Y", "Z")
	// Group z=0: strong dependence, both variables vary.
	pattern := [][2]string{{"0", "0"}, {"0", "0"}, {"1", "1"}, {"1", "1"}, {"0", "1"}}
	for i := 0; i < 40; i++ {
		p := pattern[i%len(pattern)]
		b.MustAdd(p[0], p[1], "0")
	}
	// Group z=1: X constant — uninformative under any permutation.
	for i := 0; i < 200; i++ {
		b.MustAdd("0", strconv.Itoa(i%2), "1")
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	res, err := MIT{Permutations: 400, Seed: 5, Est: stats.PlugIn}.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 1 {
		t.Errorf("informative groups = %d, want 1 (constant-X group skipped)", res.Groups)
	}
	if res.PValue > 0.05 {
		t.Errorf("dependence in the informative group missed: p = %v", res.PValue)
	}
}

// TestMITSingleGroupConditioning: a conditioning attribute with one value
// degenerates to the unconditional test.
func TestMITSingleGroupConditioning(t *testing.T) {
	tab := chainData(t, 500, 30)
	// Add a constant column.
	constCol := make([]string, tab.NumRows())
	for i := range constCol {
		constCol[i] = "c"
	}
	cols := []*dataset.Column{dataset.NewColumnFromStrings("C", constCol)}
	for _, name := range tab.Columns() {
		c, err := tab.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	tab2, err := dataset.New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	unconditional, err := MIT{Permutations: 300, Seed: 6, Est: stats.PlugIn}.Test(context.Background(), mem.New(tab2), "X", "Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	conditional, err := MIT{Permutations: 300, Seed: 6, Est: stats.PlugIn}.Test(context.Background(), mem.New(tab2), "X", "Y", []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(unconditional.MI-conditional.MI) > 1e-12 {
		t.Errorf("MI differs: %v vs %v", unconditional.MI, conditional.MI)
	}
	if unconditional.PValue != conditional.PValue {
		t.Errorf("p-values differ: %v vs %v", unconditional.PValue, conditional.PValue)
	}
}

// TestCachedProviderConcurrentAccess exercises the cache under parallel
// use (the Parallel analysis path shares providers across goroutines):
// concurrent entropy requests, and concurrent ConditionalMI statements
// whose derived terms overlap, each equal to its serial value.
func TestCachedProviderConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	tab := chainData(t, 400, 31)
	p := cachedProv(t, mem.New(tab), stats.MillerMadow)
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := p.JointEntropy(ctx, []string{"X", "Y", "Z"})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = h
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if results[i] != results[0] {
			t.Fatalf("concurrent entropy values differ: %v vs %v", results[i], results[0])
		}
	}

	// Every statement shares terms with the others: XZ, YZ, Z, XY, ...
	stmts := []triple{{"X", "Y", []string{"Z"}}, {"Y", "X", []string{"Z"}}, {"X", "Z", []string{"Y"}},
		{"Z", "Y", []string{"X"}}, {"X", "Y", nil}, {"Y", "Z", nil}}
	want := make([]float64, len(stmts))
	serial := cachedProv(t, mem.New(tab), stats.MillerMadow)
	for i, s := range stmts {
		var err error
		if want[i], err = ConditionalMI(ctx, serial, s.x, []string{s.y}, s.z); err != nil {
			t.Fatal(err)
		}
	}
	shared := cachedProv(t, mem.New(tab), stats.MillerMadow)
	got := make([]float64, 8*len(stmts))
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stmts[g%len(stmts)]
			mi, err := ConditionalMI(ctx, shared, s.x, []string{s.y}, s.z)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = mi
		}(g)
	}
	wg.Wait()
	for g, mi := range got {
		if i := g % len(stmts); mi != want[i] {
			t.Errorf("concurrent I(%s;%s|%v) = %v, serial %v", stmts[i].x, stmts[i].y, stmts[i].z, mi, want[i])
		}
	}
}

// TestHyMITWithProviderConsistency: supplying a cached provider must not
// change the chi2-branch verdict.
func TestHyMITWithProviderConsistency(t *testing.T) {
	rel := mem.New(chainData(t, 3000, 32))
	p := cachedProv(t, rel, stats.MillerMadow)
	bare := HyMIT{Permutations: 100, Seed: 7, Est: stats.MillerMadow}
	cached := HyMIT{Permutations: 100, Seed: 7, Est: stats.MillerMadow, Provider: p}
	r1, err := bare.Test(context.Background(), rel, "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cached.Test(context.Background(), rel, "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Method != r2.Method || r1.PValue != r2.PValue {
		t.Errorf("provider changed the verdict: %+v vs %+v", r1, r2)
	}
	if _, misses := entropyTally(p); misses == 0 {
		t.Error("the provider over the tested relation was not used")
	}
}

// TestProviderOverAnotherRelation: a tester whose provider was built over
// table A, asked about table B with different data, tests B — the result
// equals the provider-less one, and A's provider is never consulted.
func TestProviderOverAnotherRelation(t *testing.T) {
	ctx := context.Background()
	a := mem.New(chainData(t, 3000, 34))
	b := mem.New(independentData(t, 12, 35))
	p := cachedProv(t, a, stats.MillerMadow)
	cases := []struct {
		name           string
		bare, provided Tester
	}{
		{"chi2", ChiSquare{Est: stats.MillerMadow}, ChiSquare{Provider: p, Est: stats.MillerMadow}},
		{"hymit", HyMIT{Permutations: 200, Seed: 9, Est: stats.MillerMadow},
			HyMIT{Permutations: 200, Seed: 9, Est: stats.MillerMadow, Provider: p}},
	}
	for _, tc := range cases {
		want, err := tc.bare.Test(ctx, b, "X", "Y", []string{"Z"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.provided.Test(ctx, b, "X", "Y", []string{"Z"})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s on B with A's provider = %+v, without a provider %+v", tc.name, got, want)
		}
	}
	if hits, misses := entropyTally(p); hits+misses != 0 {
		t.Errorf("A's provider answered %d requests about B", hits+misses)
	}
}

// TestShuffleMatchesChiSquareVerdicts: on comfortable sample sizes the
// nonparametric and parametric tests agree on clear-cut cases.
func TestShuffleMatchesChiSquareVerdicts(t *testing.T) {
	dep := chainData(t, 600, 33)
	s := Shuffle{Permutations: 300, Seed: 8, Est: stats.PlugIn}
	c := ChiSquare{Est: stats.MillerMadow}
	rs, err := s.Test(context.Background(), mem.New(dep), "X", "Z", nil) // X directly caused by Z
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.Test(context.Background(), mem.New(dep), "X", "Z", nil)
	if err != nil {
		t.Fatal(err)
	}
	if Decision(rs, 0.01) != Decision(rc, 0.01) {
		t.Errorf("verdicts disagree: shuffle p=%v, chi2 p=%v", rs.PValue, rc.PValue)
	}
}
