package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Reference values from standard chi-squared tables.
	cases := []struct {
		x, df, want, tol float64
	}{
		{3.841, 1, 0.05, 2e-4},
		{6.635, 1, 0.01, 2e-4},
		{5.991, 2, 0.05, 2e-4},
		{9.210, 2, 0.01, 2e-4},
		{7.815, 3, 0.05, 2e-4},
		{18.307, 10, 0.05, 2e-4},
		{0, 5, 1, 1e-12},
		{2, 2, math.Exp(-1), 1e-9}, // χ²_2 survival = e^{-x/2}
	}
	for _, tc := range cases {
		got, err := ChiSquareSurvival(tc.x, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareSurvival(%v,%v): %v", tc.x, tc.df, err)
		}
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("ChiSquareSurvival(%v,%v) = %v, want %v±%v", tc.x, tc.df, got, tc.want, tc.tol)
		}
	}
}

func TestChiSquareSurvivalDF2Exact(t *testing.T) {
	// df=2 has the closed form e^{-x/2}; check across a range including the
	// series/continued-fraction switch point.
	for _, x := range []float64{0.1, 0.5, 1, 2, 2.9, 3.1, 5, 10, 50} {
		got, err := ChiSquareSurvival(x, 2)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		want := math.Exp(-x / 2)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("x=%v: got %v, want %v", x, got, want)
		}
	}
}

func TestChiSquareInvalidDF(t *testing.T) {
	if _, err := ChiSquareSurvival(1, 0); err == nil {
		t.Error("df=0 accepted")
	}
	if _, err := ChiSquareSurvival(1, -2); err == nil {
		t.Error("df<0 accepted")
	}
}

func TestGTestPValue(t *testing.T) {
	// Zero MI ⇒ G = 0 ⇒ p = 1.
	p, err := GTestPValue(0, 100, 1)
	if err != nil {
		t.Fatalf("GTestPValue: %v", err)
	}
	if p != 1 {
		t.Errorf("p(MI=0) = %v, want 1", p)
	}
	// Strong dependence on many samples ⇒ tiny p.
	p, err = GTestPValue(0.3, 10000, 1)
	if err != nil {
		t.Fatalf("GTestPValue: %v", err)
	}
	if p > 1e-10 {
		t.Errorf("p(strong dependence) = %v, want ≈0", p)
	}
	// Negative MI (Miller-Madow artifact) clamps to p = 1.
	p, err = GTestPValue(-0.01, 100, 2)
	if err != nil {
		t.Fatalf("GTestPValue: %v", err)
	}
	if p != 1 {
		t.Errorf("p(negative MI) = %v, want 1", p)
	}
	// Degenerate df ⇒ p = 1, not an error.
	p, err = GTestPValue(0.2, 100, 0)
	if err != nil || p != 1 {
		t.Errorf("p(df=0) = %v err=%v, want 1,nil", p, err)
	}
	if _, err := GTestPValue(0.1, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestGTestCalibration(t *testing.T) {
	// Under the null (independent binary X,Y), p-values should be roughly
	// uniform: the rejection rate at α=0.05 over many trials must be near 5%.
	rng := rand.New(rand.NewSource(99))
	trials := 2000
	n := 500
	rejected := 0
	for tr := 0; tr < trials; tr++ {
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range x {
			x[i] = int32(rng.Intn(2))
			y[i] = int32(rng.Intn(2))
		}
		mi := mutualInformation(x, y, 2, 2, PlugIn)
		p, err := GTestPValue(mi, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / float64(trials)
	if rate < 0.02 || rate > 0.09 {
		t.Errorf("null rejection rate = %v, want ≈0.05", rate)
	}
}

func TestBinomialCI(t *testing.T) {
	if w := BinomialCI(0.5, 100); math.Abs(w-1.96*0.05) > 1e-12 {
		t.Errorf("CI(0.5,100) = %v, want %v", w, 1.96*0.05)
	}
	if w := BinomialCI(0, 100); w != 0 {
		t.Errorf("CI(0,100) = %v, want 0", w)
	}
	if w := BinomialCI(0.5, 0); w != 0 {
		t.Errorf("CI(.5,0) = %v, want 0", w)
	}
	if w := BinomialCI(-1, 10); w != 0 {
		t.Errorf("CI(-1,10) = %v, want 0 (clamped)", w)
	}
}

func TestLinearRegression(t *testing.T) {
	// Exact line y = 2 + 3x.
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 8, 11, 14}
	a, b, r2, err := LinearRegression(x, y)
	if err != nil {
		t.Fatalf("LinearRegression: %v", err)
	}
	if math.Abs(a-2) > 1e-9 || math.Abs(b-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = (%v,%v,R²=%v), want (2,3,1)", a, b, r2)
	}
	// Constant y: slope 0, R² defined as 1.
	_, b, r2, err = LinearRegression(x, []float64{7, 7, 7, 7})
	if err != nil {
		t.Fatalf("LinearRegression: %v", err)
	}
	if b != 0 || r2 != 1 {
		t.Errorf("constant fit = (b=%v,R²=%v), want (0,1)", b, r2)
	}
	if _, _, _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestMeanVariance(t *testing.T) {
	m, v := MeanVariance([]float64{1, 2, 3, 4})
	if m != 2.5 || math.Abs(v-1.25) > 1e-12 {
		t.Errorf("MeanVariance = (%v,%v), want (2.5,1.25)", m, v)
	}
	m, v = MeanVariance(nil)
	if m != 0 || v != 0 {
		t.Errorf("MeanVariance(nil) = (%v,%v), want zeros", m, v)
	}
}

// Property: survival is monotone decreasing in x and lies in [0,1].
func TestQuickChiSquareMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		df := float64(1 + r.Intn(20))
		x1 := r.Float64() * 30
		x2 := x1 + r.Float64()*10
		p1, err1 := ChiSquareSurvival(x1, df)
		p2, err2 := ChiSquareSurvival(x2, df)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= p2-1e-12 && p1 >= 0 && p1 <= 1 && p2 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestChiSquareLargeDF(t *testing.T) {
	// Huge degrees of freedom (high-cardinality attributes) exercise the
	// slow-converging x ≈ a regime of the incomplete gamma series.
	for _, tc := range []struct{ x, df float64 }{
		{7940.4, 8100}, {8100, 8100}, {8500, 8100}, {1e6, 1e6},
	} {
		p, err := ChiSquareSurvival(tc.x, tc.df)
		if err != nil {
			t.Fatalf("ChiSquareSurvival(%v,%v): %v", tc.x, tc.df, err)
		}
		if p < 0 || p > 1 {
			t.Errorf("p(%v,%v) = %v outside [0,1]", tc.x, tc.df, p)
		}
	}
	// Sanity: at x = df the survival is near 0.5 for large df.
	p, err := ChiSquareSurvival(10000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 0.02 {
		t.Errorf("survival at the mean = %v, want ≈0.5", p)
	}
}
