package independence

import (
	"context"
	"errors"

	"math"
	"math/rand"
	"strconv"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/stats"
	"hypdb/source/mem"
)

// chainData builds a table with structure X ← Z → Y: X and Y are
// marginally dependent but conditionally independent given Z.
func chainData(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("X", "Y", "Z")
	for i := 0; i < n; i++ {
		z := rng.Intn(2)
		x := z
		if rng.Float64() < 0.2 {
			x = 1 - x
		}
		y := z
		if rng.Float64() < 0.2 {
			y = 1 - y
		}
		b.MustAdd(strconv.Itoa(x), strconv.Itoa(y), strconv.Itoa(z))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// independentData builds a table where X, Y, Z are mutually independent.
func independentData(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("X", "Y", "Z")
	for i := 0; i < n; i++ {
		b.MustAdd(strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2)), strconv.Itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func testers(seed int64) map[string]Tester {
	return map[string]Tester{
		"chi2":         ChiSquare{Est: stats.MillerMadow},
		"mit":          MIT{Permutations: 400, Seed: seed, Est: stats.PlugIn},
		"mit-sampling": MIT{Permutations: 400, Seed: seed, Est: stats.PlugIn, SampleGroups: true},
		"mit-parallel": MIT{Permutations: 400, Seed: seed, Est: stats.PlugIn, Parallel: true},
		"hymit":        HyMIT{Permutations: 400, Seed: seed, Est: stats.MillerMadow},
	}
}

func TestAllTestersDetectMarginalDependence(t *testing.T) {
	tab := chainData(t, 2000, 1)
	for name, ts := range testers(7) {
		res, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PValue > 0.01 {
			t.Errorf("%s: X,Y marginally dependent but p = %v", name, res.PValue)
		}
		if res.MI <= 0 {
			t.Errorf("%s: MI = %v, want > 0", name, res.MI)
		}
	}
}

func TestAllTestersAcceptConditionalIndependence(t *testing.T) {
	tab := chainData(t, 2000, 2)
	for name, ts := range testers(8) {
		res, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PValue < 0.01 {
			t.Errorf("%s: X⊥Y|Z should hold but p = %v (MI=%v)", name, res.PValue, res.MI)
		}
	}
}

func TestAllTestersAcceptIndependence(t *testing.T) {
	tab := independentData(t, 2000, 3)
	for name, ts := range testers(9) {
		res, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PValue < 0.01 {
			t.Errorf("%s: independent X,Y rejected with p = %v", name, res.PValue)
		}
	}
}

func TestMITDeterministicAcrossParallel(t *testing.T) {
	tab := chainData(t, 800, 4)
	seq := MIT{Permutations: 300, Seed: 42, Est: stats.PlugIn}
	par := MIT{Permutations: 300, Seed: 42, Est: stats.PlugIn, Parallel: true}
	// Sequential and parallel use different replicate seeding, so exact
	// p-value equality is only guaranteed within each mode.
	r1, err := seq.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := seq.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PValue != r2.PValue {
		t.Errorf("sequential MIT not deterministic: %v vs %v", r1.PValue, r2.PValue)
	}
	p1, err := par.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := par.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if p1.PValue != p2.PValue {
		t.Errorf("parallel MIT not deterministic: %v vs %v", p1.PValue, p2.PValue)
	}
}

func TestMITAgreesWithShuffle(t *testing.T) {
	// MIT samples from the same null distribution the naive shuffle does;
	// their p-values on the same data must be close.
	tab := chainData(t, 400, 5)
	mit := MIT{Permutations: 600, Seed: 10, Est: stats.PlugIn}
	shf := Shuffle{Permutations: 600, Seed: 11, Est: stats.PlugIn}
	for _, z := range [][]string{nil, {"Z"}} {
		rm, err := mit.Test(context.Background(), mem.New(tab), "X", "Y", z)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := shf.Test(context.Background(), mem.New(tab), "X", "Y", z)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rm.PValue-rs.PValue) > 0.08 {
			t.Errorf("z=%v: MIT p=%v vs shuffle p=%v differ beyond Monte-Carlo error",
				z, rm.PValue, rs.PValue)
		}
		if math.Abs(rm.MI-rs.MI) > 1e-9 {
			t.Errorf("z=%v: observed statistics differ: %v vs %v", z, rm.MI, rs.MI)
		}
	}
}

func TestMITPValueCIReported(t *testing.T) {
	tab := independentData(t, 500, 6)
	res, err := MIT{Permutations: 200, Seed: 1, Est: stats.PlugIn}.Test(context.Background(), mem.New(tab), "X", "Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.BinomialCI(res.PValue, 200)
	if math.Abs(res.PValueCI-want) > 1e-12 {
		t.Errorf("PValueCI = %v, want %v", res.PValueCI, want)
	}
}

func TestHyMITBranchSelection(t *testing.T) {
	// Large n, tiny df ⇒ chi2 branch.
	big := chainData(t, 3000, 7)
	res, err := HyMIT{Permutations: 100, Seed: 1, Est: stats.MillerMadow}.Test(context.Background(), mem.New(big), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "hymit(chi2)" {
		t.Errorf("large-sample branch = %q, want hymit(chi2)", res.Method)
	}
	// Tiny n with a wide conditioning set ⇒ MIT branch.
	rng := rand.New(rand.NewSource(8))
	b := dataset.NewBuilder("X", "Y", "A", "B", "C")
	for i := 0; i < 40; i++ {
		b.MustAdd(strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)),
			strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)))
	}
	small, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	res, err = HyMIT{Permutations: 100, Seed: 1}.Test(context.Background(), mem.New(small), "X", "Y", []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "hymit(mit)" {
		t.Errorf("sparse branch = %q, want hymit(mit)", res.Method)
	}
}

func TestDegenerateConstantColumn(t *testing.T) {
	b := dataset.NewBuilder("X", "Y")
	for i := 0; i < 50; i++ {
		b.MustAdd("same", strconv.Itoa(i%2))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range testers(1) {
		res, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", nil)
		if err != nil {
			t.Fatalf("%s: constant column should not error: %v", name, err)
		}
		if res.PValue < 0.99 {
			t.Errorf("%s: constant X should be independent of everything, p = %v", name, res.PValue)
		}
	}
}

func TestInputValidation(t *testing.T) {
	tab := independentData(t, 50, 9)
	for name, ts := range testers(2) {
		if _, err := ts.Test(context.Background(), mem.New(tab), "X", "X", nil); err == nil {
			t.Errorf("%s: self-test accepted", name)
		}
		if _, err := ts.Test(context.Background(), mem.New(tab), "X", "missing", nil); err == nil {
			t.Errorf("%s: missing column accepted", name)
		}
		if _, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", []string{"X"}); err == nil {
			t.Errorf("%s: conditioning on tested attribute accepted", name)
		}
		if _, err := ts.Test(context.Background(), mem.New(tab), "X", "Y", []string{"missing"}); err == nil {
			t.Errorf("%s: missing conditioning attribute accepted", name)
		}
	}
}

// TestSetInputValidation: a variable set must be non-empty, name existing
// attributes, repeat none and share none with the tested attribute or the
// conditioning set.
func TestSetInputValidation(t *testing.T) {
	rel := mem.New(independentData(t, 50, 9))
	ctx := context.Background()
	for name, ts := range testers(2) {
		st := ts.(SetTester)
		if _, err := st.TestSet(ctx, rel, "X", nil, nil); err == nil {
			t.Errorf("%s: empty variable set accepted", name)
		}
		if _, err := st.TestSet(ctx, rel, "X", []string{"Y", "missing"}, nil); !errors.Is(err, hyperr.ErrUnknownAttribute) {
			t.Errorf("%s: missing member of the variable set: err = %v, want ErrUnknownAttribute", name, err)
		}
		if _, err := st.TestSet(ctx, rel, "X", []string{"Y", "Y"}, nil); err == nil {
			t.Errorf("%s: repeated member of the variable set accepted", name)
		}
		if _, err := st.TestSet(ctx, rel, "X", []string{"Y", "X"}, nil); err == nil {
			t.Errorf("%s: variable set holding the tested attribute accepted", name)
		}
		if _, err := st.TestSet(ctx, rel, "X", []string{"Y", "Z"}, []string{"Z"}); err == nil {
			t.Errorf("%s: variable set overlapping the conditioning set accepted", name)
		}
		if _, err := st.TestSet(ctx, rel, "X", []string{"Y", "Z"}, nil); err != nil {
			t.Errorf("%s: valid variable set rejected: %v", name, err)
		}
	}
}

func TestMITGroupSamplingStillDetectsDependence(t *testing.T) {
	// Many conditioning groups; sampling must keep the signal. Build
	// X = Y (strong dependence) within every group of a 3-attribute Z.
	rng := rand.New(rand.NewSource(10))
	b := dataset.NewBuilder("X", "Y", "Z1", "Z2", "Z3")
	for i := 0; i < 4000; i++ {
		x := rng.Intn(2)
		y := x
		if rng.Float64() < 0.1 {
			y = 1 - y
		}
		b.MustAdd(strconv.Itoa(x), strconv.Itoa(y),
			strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	res, err := MIT{Permutations: 300, Seed: 3, SampleGroups: true, Est: stats.PlugIn}.
		Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z1", "Z2", "Z3"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.01 {
		t.Errorf("group-sampled MIT missed strong dependence: p = %v", res.PValue)
	}
	if res.Groups >= 64 {
		t.Errorf("group sampling kept %d groups, expected a strict subset", res.Groups)
	}
}

func TestCachedProvider(t *testing.T) {
	tab := chainData(t, 500, 11)
	cached := cachedProv(t, mem.New(tab), stats.MillerMadow)
	h1, err := cached.JointEntropy(context.Background(), []string{"X", "Z"})
	if err != nil {
		t.Fatal(err)
	}
	// Attribute order must not matter for the cache or the value.
	h2, err := cached.JointEntropy(context.Background(), []string{"Z", "X"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("entropy depends on attribute order: %v vs %v", h1, h2)
	}
	hits, misses := entropyTally(cached)
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = (%d hits, %d misses), want (1,1)", hits, misses)
	}
	if _, err := cached.DistinctCount(context.Background(), []string{"X"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.DistinctCount(context.Background(), []string{"X"}); err != nil {
		t.Fatal(err)
	}
	hits, _ = entropyTally(cached)
	if hits != 2 {
		t.Errorf("distinct-count cache not hit: hits = %d", hits)
	}
	if cached.NumRows() != tab.NumRows() {
		t.Errorf("NumRows = %d, want %d", cached.NumRows(), tab.NumRows())
	}
}

func TestChiSquareWithCachedProviderMatchesScan(t *testing.T) {
	rel := mem.New(chainData(t, 800, 12))
	scan := ChiSquare{Est: stats.MillerMadow}
	cached := ChiSquare{Provider: cachedProv(t, rel, stats.MillerMadow), Est: stats.MillerMadow}
	r1, err := scan.Test(context.Background(), rel, "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cached.Test(context.Background(), rel, "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MI != r2.MI || r1.PValue != r2.PValue || r1.DF != r2.DF {
		t.Errorf("cached result differs: %+v vs %+v", r1, r2)
	}
}

func TestCounter(t *testing.T) {
	tab := independentData(t, 100, 13)
	c := &Counter{Inner: ChiSquare{Est: stats.PlugIn}}
	for i := 0; i < 3; i++ {
		if _, err := c.Test(context.Background(), mem.New(tab), "X", "Y", nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Calls() != 3 {
		t.Errorf("Calls = %d, want 3", c.Calls())
	}
	c.Reset()
	if c.Calls() != 0 {
		t.Errorf("Calls after Reset = %d, want 0", c.Calls())
	}
}

func TestDecision(t *testing.T) {
	if Decision(Result{PValue: 0.5}, 0.01) != true {
		t.Error("p=0.5 should be independent at α=0.01")
	}
	if Decision(Result{PValue: 0.001}, 0.01) != false {
		t.Error("p=0.001 should be dependent at α=0.01")
	}
}

func TestShuffleDetectsAndAccepts(t *testing.T) {
	tab := chainData(t, 300, 14)
	s := Shuffle{Permutations: 300, Seed: 15, Est: stats.PlugIn}
	dep, err := s.Test(context.Background(), mem.New(tab), "X", "Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dep.PValue > 0.01 {
		t.Errorf("shuffle missed dependence: p = %v", dep.PValue)
	}
	ind, err := s.Test(context.Background(), mem.New(tab), "X", "Y", []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if ind.PValue < 0.01 {
		t.Errorf("shuffle rejected conditional independence: p = %v", ind.PValue)
	}
}

func TestMITCalibrationUnderNull(t *testing.T) {
	// p-values under the null should be roughly uniform: rejection rate at
	// α=0.1 near 10%.
	rejected := 0
	trials := 120
	for tr := 0; tr < trials; tr++ {
		tab := independentData(t, 200, int64(100+tr))
		res, err := MIT{Permutations: 200, Seed: int64(tr), Est: stats.PlugIn}.Test(context.Background(), mem.New(tab), "X", "Y", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.1 {
			rejected++
		}
	}
	rate := float64(rejected) / float64(trials)
	if rate > 0.2 {
		t.Errorf("MIT null rejection rate at α=0.1 is %v, want ≲0.1 (anti-conservative)", rate)
	}
}

// TestShufflePinnedWideGroups pins Shuffle's results at a fixed seed over a
// conditioning set whose first attribute has more than 256 codes. Shuffle
// permutes X within each group of Z, drawing from one random stream in
// group order, so the p-values move if the group order or the rows within
// a group ever change.
func TestShufflePinnedWideGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := dataset.NewBuilder("X", "Y", "Z", "W")
	for i := 0; i < 3000; i++ {
		z, w := rng.Intn(300), rng.Intn(2)
		x := (z + rng.Intn(2)) % 3
		y := (z / 100) % 3
		if rng.Float64() < 0.15 {
			y = (x + w) % 3
		} else if rng.Float64() < 0.5 {
			y = rng.Intn(3)
		}
		b.MustAdd(strconv.Itoa(x), strconv.Itoa(y), strconv.Itoa(z), strconv.Itoa(w))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		z      []string
		mi, pv string
	}{
		{[]string{"Z"}, "0.11751671263569051", "0.32"},
		{[]string{"Z", "W"}, "0.18236032261732465", "0.045"},
		{[]string{"W", "Z"}, "0.1823603226173246", "0.04"},
	} {
		res, err := Shuffle{Permutations: 200, Seed: 7, Est: stats.PlugIn}.Test(context.Background(), mem.New(tab), "X", "Y", tc.z)
		if err != nil {
			t.Fatal(err)
		}
		mi, pv := strconv.FormatFloat(res.MI, 'g', -1, 64), strconv.FormatFloat(res.PValue, 'g', -1, 64)
		if mi != tc.mi || pv != tc.pv {
			t.Errorf("Shuffle given %v: MI %s, p %s; want MI %s, p %s", tc.z, mi, pv, tc.mi, tc.pv)
		}
	}
}

// TestChiSquareTestAllocs pins the allocations of a single-variable χ² test
// whose entropies and distinct counts the provider's memo already holds: a
// set-valued Test must not cost more than the pairwise one did.
func TestChiSquareTestAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := dataset.NewBuilder("X", "Y", "Z", "W")
	for i := 0; i < 500; i++ {
		b.MustAdd(strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2)), strconv.Itoa(rng.Intn(2)), strconv.Itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	rel := mem.New(tab)
	c := ChiSquare{Provider: cachedProv(t, rel, stats.MillerMadow), Est: stats.MillerMadow}
	ctx := context.Background()
	for _, tc := range []struct {
		z   []string
		max float64
	}{{nil, 11}, {[]string{"Z"}, 14}, {[]string{"Z", "W"}, 19}} {
		if _, err := c.Test(ctx, rel, "X", "Y", tc.z); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Test(ctx, rel, "X", "Y", tc.z); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("χ² X ⊥ Y | %v served from the memo: %v allocations, want ≤ %v", tc.z, allocs, tc.max)
		}
	}
}
