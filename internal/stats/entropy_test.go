package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// tally counts parallel code vectors, vecs[j] holding codes below cards[j],
// into their dense joint histogram in row-major order: the count form the
// engine's views hand to the estimator.
func tally(cards []int, vecs ...[]int32) []int {
	size := 1
	for _, c := range cards {
		size *= c
	}
	counts := make([]int, size)
	for i := range vecs[0] {
		cell := 0
		for j, v := range vecs {
			cell = cell*cards[j] + int(v[i])
		}
		counts[cell]++
	}
	return counts
}

// mutualInformation estimates I(X;Y) = H(X)+H(Y)−H(XY) from parallel code
// vectors the way the engine does from a two-attribute view: EntropyCounts
// over each marginal, EntropyCountsStable over the joint cells.
func mutualInformation(x, y []int32, cardX, cardY int, est Estimator) float64 {
	n := len(x)
	return EntropyCounts(tally([]int{cardX}, x), n, est) + EntropyCounts(tally([]int{cardY}, y), n, est) -
		EntropyCountsStable(tally([]int{cardX, cardY}, x, y), n, est)
}

func TestEntropyCountsUniform(t *testing.T) {
	// Uniform over k values: H = ln k.
	for _, k := range []int{2, 4, 8, 16} {
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 10
		}
		h := EntropyCounts(counts, 10*k, PlugIn)
		if !almostEqual(h, math.Log(float64(k)), 1e-12) {
			t.Errorf("k=%d: H = %v, want ln(k)=%v", k, h, math.Log(float64(k)))
		}
	}
}

func TestEntropyCountsDegenerate(t *testing.T) {
	if h := EntropyCounts([]int{10}, 10, PlugIn); h != 0 {
		t.Errorf("constant variable H = %v, want 0", h)
	}
	if h := EntropyCounts([]int{10}, 10, MillerMadow); h != 0 {
		t.Errorf("constant variable Miller-Madow H = %v, want 0 (m=1, no correction)", h)
	}
	if h := EntropyCounts(nil, 0, PlugIn); h != 0 {
		t.Errorf("empty H = %v, want 0", h)
	}
	if h := EntropyCounts([]int{0, 0, 5}, 5, PlugIn); h != 0 {
		t.Errorf("zero counts should be skipped; H = %v, want 0", h)
	}
}

func TestMillerMadowCorrection(t *testing.T) {
	counts := []int{3, 5, 2}
	n := 10
	plug := EntropyCounts(counts, n, PlugIn)
	mm := EntropyCounts(counts, n, MillerMadow)
	want := plug + float64(3-1)/(2*float64(n))
	if !almostEqual(mm, want, 1e-12) {
		t.Errorf("Miller-Madow = %v, want plug-in + (m-1)/2n = %v", mm, want)
	}
}

func TestMillerMadowReducesBias(t *testing.T) {
	// On small samples from a uniform distribution the plug-in estimator
	// underestimates H; Miller-Madow must be closer to the truth on average.
	rng := rand.New(rand.NewSource(42))
	k := 8
	truth := math.Log(float64(k))
	trials := 300
	sumPlug, sumMM := 0.0, 0.0
	for tr := 0; tr < trials; tr++ {
		counts := make([]int, k)
		for i := 0; i < 30; i++ {
			counts[rng.Intn(k)]++
		}
		sumPlug += EntropyCounts(counts, 30, PlugIn)
		sumMM += EntropyCounts(counts, 30, MillerMadow)
	}
	biasPlug := math.Abs(sumPlug/float64(trials) - truth)
	biasMM := math.Abs(sumMM/float64(trials) - truth)
	if biasMM >= biasPlug {
		t.Errorf("Miller-Madow bias %v not smaller than plug-in bias %v", biasMM, biasPlug)
	}
}

func TestEntropyCountsMapMatchesSlice(t *testing.T) {
	counts := map[string]int{"a": 3, "b": 5, "c": 2}
	slice := []int{3, 5, 2}
	for _, est := range []Estimator{PlugIn, MillerMadow} {
		hm := EntropyCountsMap(counts, 10, est)
		hs := EntropyCounts(slice, 10, est)
		if !almostEqual(hm, hs, 1e-15) {
			t.Errorf("%v: map %v != slice %v", est, hm, hs)
		}
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// Perfectly balanced independent X,Y: plug-in MI must be exactly 0.
	var x, y []int32
	for i := int32(0); i < 2; i++ {
		for j := int32(0); j < 3; j++ {
			for r := 0; r < 10; r++ {
				x = append(x, i)
				y = append(y, j)
			}
		}
	}
	mi := mutualInformation(x, y, 2, 3, PlugIn)
	if !almostEqual(mi, 0, 1e-12) {
		t.Errorf("MI of independent data = %v, want 0", mi)
	}
}

func TestMutualInformationDeterministic(t *testing.T) {
	// Y = X: I(X;Y) = H(X).
	x := []int32{0, 0, 1, 1, 2, 2}
	mi := mutualInformation(x, x, 3, 3, PlugIn)
	hx := EntropyCounts(tally([]int{3}, x), len(x), PlugIn)
	if !almostEqual(mi, hx, 1e-12) {
		t.Errorf("I(X;X) = %v, want H(X) = %v", mi, hx)
	}
}

func TestConditionalMIIdentity(t *testing.T) {
	// Hand-built joint distribution over X,Y,Z (all binary); verify the
	// chain-rule identity against a direct computation.
	// P(z)=1/2; given z: X,Y dependent for z=0, independent for z=1.
	type cell struct{ x, y, z int32 }
	counts := map[cell]int{
		{0, 0, 0}: 40, {1, 1, 0}: 40, {0, 1, 0}: 10, {1, 0, 0}: 10,
		{0, 0, 1}: 25, {0, 1, 1}: 25, {1, 0, 1}: 25, {1, 1, 1}: 25,
	}
	var xs, ys, zs []int32
	for c, n := range counts {
		for i := 0; i < n; i++ {
			xs = append(xs, c.x)
			ys = append(ys, c.y)
			zs = append(zs, c.z)
		}
	}
	n := len(xs)
	hz := EntropyCounts(tally([]int{2}, zs), n, PlugIn)
	hxz := EntropyCountsStable(tally([]int{2, 2}, xs, zs), n, PlugIn)
	hyz := EntropyCountsStable(tally([]int{2, 2}, ys, zs), n, PlugIn)
	hxyz := EntropyCountsStable(tally([]int{2, 2, 2}, xs, ys, zs), n, PlugIn)
	cmi := ConditionalMI(hxz, hyz, hxyz, hz)

	// Direct: I(X;Y|Z) = Σ_z P(z)·I(X;Y|Z=z).
	direct := 0.0
	for _, z := range []int32{0, 1} {
		var xz, yz []int32
		for i := range zs {
			if zs[i] == z {
				xz = append(xz, xs[i])
				yz = append(yz, ys[i])
			}
		}
		mi := mutualInformation(xz, yz, 2, 2, PlugIn)
		direct += float64(len(xz)) / float64(n) * mi
	}
	if !almostEqual(cmi, direct, 1e-12) {
		t.Errorf("chain-rule CMI %v != direct %v", cmi, direct)
	}
	if cmi <= 0 {
		t.Errorf("CMI = %v, want > 0 (X,Y dependent given Z=0)", cmi)
	}
}

// Property: plug-in entropy is within [0, ln m] and plug-in MI is
// non-negative and bounded by min(H(X), H(Y)) (within floating error).
func TestQuickEntropyAndMIBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(500)
		cx := 2 + r.Intn(6)
		cy := 2 + r.Intn(6)
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range x {
			x[i] = int32(r.Intn(cx))
			// Correlate y with x half the time to explore both regimes.
			if r.Intn(2) == 0 {
				y[i] = x[i] % int32(cy)
			} else {
				y[i] = int32(r.Intn(cy))
			}
		}
		hx := EntropyCounts(tally([]int{cx}, x), n, PlugIn)
		hy := EntropyCounts(tally([]int{cy}, y), n, PlugIn)
		if hx < -1e-12 || hx > math.Log(float64(cx))+1e-12 {
			return false
		}
		mi := mutualInformation(x, y, cx, cy, PlugIn)
		if mi < -1e-9 {
			return false
		}
		bound := math.Min(hx, hy)
		return mi <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: submodularity-backed inequality used in footnote 1 of the paper:
// for Z in the conditioning scope, I(T;V) − I(T;V|Z) = I(T;Z) ≥ 0 when
// Z ⊆ V. We verify I(X;YZ) ≥ I(X;Y) (monotonicity of information in jointly
// measured variables) on random data with the plug-in estimator.
func TestQuickInformationMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(300)
		x := make([]int32, n)
		y := make([]int32, n)
		z := make([]int32, n)
		for i := range x {
			x[i] = int32(r.Intn(3))
			y[i] = int32(r.Intn(3))
			z[i] = int32(r.Intn(2))
		}
		// I(X;YZ) via composite YZ codes.
		yz := make([]int32, n)
		for i := range yz {
			yz[i] = y[i]*2 + z[i]
		}
		miXY := mutualInformation(x, y, 3, 3, PlugIn)
		miXYZ := mutualInformation(x, yz, 3, 6, PlugIn)
		return miXYZ >= miXY-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// sortedSum is the reference EntropyCountsStable must match bit for bit:
// the non-zero counts copied, sorted, and summed by EntropyCounts.
func sortedSum(counts []int, total int, est Estimator) float64 {
	var vals []int
	for _, c := range counts {
		if c > 0 {
			vals = append(vals, c)
		}
	}
	sort.Ints(vals)
	return EntropyCounts(vals, total, est)
}

// TestEntropyCountsStableMatchesSortedSum: the histogram and the sorting
// path of EntropyCountsStable both equal the sort-then-sum reference bit for
// bit, on random histograms either side of the cutoff, at the cutoff itself,
// and on the degenerate shapes (all zero, one cell, total 0).
func TestEntropyCountsStableMatchesSortedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type histogram struct {
		name   string
		counts []int
	}
	var cases []histogram
	for i := 0; i < 200; i++ {
		cells := 1 + rng.Intn(3000)
		// Small maxima take the histogram path; large ones sort.
		maxCount := 1 + rng.Intn(8)
		if i%2 == 1 {
			maxCount = 10*cells + rng.Intn(1_000_000)
		}
		counts := make([]int, cells)
		for j := range counts {
			if rng.Intn(3) > 0 {
				counts[j] = rng.Intn(maxCount + 1)
			}
		}
		cases = append(cases, histogram{"random " + strconv.Itoa(i), counts})
	}
	for _, extra := range []int{0, 1} {
		// nz = 2 occupied cells: the cutoff is 4·2 + 64 = 72.
		cases = append(cases, histogram{"cutoff+" + strconv.Itoa(extra), []int{0, 3, 72 + extra, 0}})
	}
	cases = append(cases,
		histogram{"all zero", []int{0, 0, 0}},
		histogram{"single cell", []int{0, 17, 0}},
		histogram{"single huge cell", []int{1 << 40}},
		histogram{"empty", nil},
	)
	for _, tc := range cases {
		total := 0
		for _, c := range tc.counts {
			total += c
		}
		for _, est := range []Estimator{PlugIn, MillerMadow} {
			for _, tot := range []int{total, 0} {
				before := append([]int(nil), tc.counts...)
				got := EntropyCountsStable(tc.counts, tot, est)
				want := sortedSum(tc.counts, tot, est)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %v total %d: %v, sorted sum gives %v", tc.name, est, tot, got, want)
				}
				if !slices.Equal(before, tc.counts) {
					t.Fatalf("%s: counts modified", tc.name)
				}
			}
		}
	}
}

func BenchmarkEntropyCountsStable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	// A dense 4096-cell view of 60k rows (histogram path) and the sparse
	// form of a wide view whose counts spread far past the cutoff (sort
	// path).
	dense := make([]int, 4096)
	for i := 0; i < 60000; i++ {
		dense[rng.Intn(len(dense))]++
	}
	wide := make([]int, 2000)
	for i := range wide {
		wide[i] = 1 + rng.Intn(100000)
	}
	for _, bc := range []struct {
		name   string
		counts []int
	}{{"histogram", dense}, {"sort", wide}} {
		total := 0
		for _, c := range bc.counts {
			total += c
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				EntropyCountsStable(bc.counts, total, MillerMadow)
			}
		})
	}
}
