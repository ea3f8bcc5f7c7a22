package contingency

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hypdb/internal/stats"
)

func TestTable2Basics(t *testing.T) {
	tab, err := NewTable2(2, 3)
	if err != nil {
		t.Fatalf("NewTable2: %v", err)
	}
	tab.Add(0, 0, 5)
	tab.Add(1, 2, 3)
	tab.Set(0, 0, 2)
	if got := cell(tab, 0, 0); got != 2 {
		t.Errorf("At(0,0) = %d, want 2", got)
	}
	if got := tab.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
	if got := tab.rowTotals; !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("row totals = %v", got)
	}
	if got := tab.colTotals; !reflect.DeepEqual(got, []int{2, 0, 3}) {
		t.Errorf("column totals = %v", got)
	}
	if _, err := NewTable2(0, 2); err == nil {
		t.Error("invalid shape accepted")
	}
}

// cell returns the count in cell (i,j) of tab.
func cell(tab *Table2, i, j int) int { return tab.counts[i*tab.C+j] }

// tabulate tallies every row of two parallel code vectors into a new
// cardX×cardY table.
func tabulate(t *testing.T, x, y []int32, cardX, cardY int) *Table2 {
	t.Helper()
	tab, err := NewTable2(cardX, cardY)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	if err := tab.TabulateRows(x, y, rows); err != nil {
		t.Fatalf("TabulateRows: %v", err)
	}
	return tab
}

// TestFromCodes tallies two whole code vectors through TabulateRows and
// checks the cells, then that vectors of different length and codes out of
// the table's range are refused.
func TestFromCodes(t *testing.T) {
	x := []int32{0, 0, 1, 1, 1}
	y := []int32{0, 1, 0, 1, 1}
	tab := tabulate(t, x, y, 2, 2)
	want := [][]int{{1, 1}, {1, 2}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cell(tab, i, j) != want[i][j] {
				t.Errorf("cell(%d,%d) = %d, want %d", i, j, cell(tab, i, j), want[i][j])
			}
		}
	}
	if err := tab.TabulateRows([]int32{0}, []int32{0, 1}, []int{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := tab.TabulateRows([]int32{5}, []int32{0}, []int{0}); err == nil {
		t.Error("out-of-range code accepted")
	}
}

// TestFromCodesRows tallies a subset of rows through TabulateRows, which
// must first clear what the table held, and refuses a row index out of
// range.
func TestFromCodesRows(t *testing.T) {
	x := []int32{0, 0, 1, 1}
	y := []int32{0, 1, 0, 1}
	tab := tabulate(t, x, y, 2, 2)
	if err := tab.TabulateRows(x, y, []int{1, 3}); err != nil {
		t.Fatalf("TabulateRows: %v", err)
	}
	if tab.Total() != 2 || cell(tab, 0, 0) != 0 || cell(tab, 0, 1) != 1 || cell(tab, 1, 1) != 1 {
		t.Errorf("unexpected table: total=%d", tab.Total())
	}
	if err := tab.TabulateRows(x, y, []int{9}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

// codesMI is the reference for Table2.MI: I(X;Y) = H(X)+H(Y)−H(XY) with
// each entropy tallied straight from the code vectors.
func codesMI(x, y []int32, est stats.Estimator) float64 {
	h := func(key func(i int) [2]int32) float64 {
		counts := map[[2]int32]int{}
		for i := range x {
			counts[key(i)]++
		}
		return stats.EntropyCountsMap(counts, len(x), est)
	}
	return h(func(i int) [2]int32 { return [2]int32{x[i], 0} }) +
		h(func(i int) [2]int32 { return [2]int32{0, y[i]} }) -
		h(func(i int) [2]int32 { return [2]int32{x[i], y[i]} })
}

func TestTable2MIMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(3))
		y[i] = (x[i] + int32(rng.Intn(2))) % 4
	}
	tab := tabulate(t, x, y, 3, 4)
	for _, est := range []stats.Estimator{stats.PlugIn, stats.MillerMadow} {
		want := codesMI(x, y, est)
		if got := tab.MI(est); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: table MI = %v, stats MI = %v", est, got, want)
		}
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := newSampler([]int{3, 2}, []int{4, 2}); err == nil {
		t.Error("mismatched marginal sums accepted")
	}
	if _, err := newSampler([]int{-1, 2}, []int{1}); err == nil {
		t.Error("negative row total accepted")
	}
	if _, err := newSampler(nil, []int{1}); err == nil {
		t.Error("empty row totals accepted")
	}
	if _, err := newSampler([]int{0}, []int{0}); err == nil {
		t.Error("all-zero table accepted")
	}
}

func TestSamplePreservesMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := []int{17, 9, 24}
	cols := []int{10, 5, 20, 15}
	s, err := newSampler(rows, cols)
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ := NewTable2(3, 4)
	for trial := 0; trial < 200; trial++ {
		if err := s.Sample(rng, dst); err != nil {
			t.Fatalf("Sample: %v", err)
		}
		if !reflect.DeepEqual(dst.rowTotals, rows) {
			t.Fatalf("trial %d: row totals %v, want %v", trial, dst.rowTotals, rows)
		}
		if !reflect.DeepEqual(dst.colTotals, cols) {
			t.Fatalf("trial %d: col totals %v, want %v", trial, dst.colTotals, cols)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				if cell(dst, i, j) < 0 {
					t.Fatalf("trial %d: negative cell (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestSampleShapeMismatch(t *testing.T) {
	s, err := newSampler([]int{2, 2}, []int{2, 2})
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	wrong, _ := NewTable2(3, 2)
	if err := s.Sample(rand.New(rand.NewSource(1)), wrong); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// hypergeometricPMF returns P(X=k) for the 2x2 table cell distribution with
// row total a, column total b, grand total n.
func hypergeometricPMF(k, a, b, n int) float64 {
	lchoose := func(n, k int) float64 {
		if k < 0 || k > n {
			return math.Inf(-1)
		}
		ln, _ := math.Lgamma(float64(n + 1))
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		return ln - lk - lnk
	}
	return math.Exp(lchoose(b, k) + lchoose(n-b, a-k) - lchoose(n, a))
}

func TestSampleMatchesHypergeometric(t *testing.T) {
	// For a 2x2 table the (0,0) cell under fixed marginals is exactly
	// hypergeometric. Chi-square goodness of fit over many draws.
	rng := rand.New(rand.NewSource(3))
	a, b, n := 12, 8, 30 // row0 total, col0 total, grand total
	s, err := newSampler([]int{a, n - a}, []int{b, n - b})
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ := NewTable2(2, 2)
	draws := 20000
	lo := a + b - n
	if lo < 0 {
		lo = 0
	}
	hi := a
	if b < hi {
		hi = b
	}
	obs := make([]int, hi-lo+1)
	for i := 0; i < draws; i++ {
		if err := s.Sample(rng, dst); err != nil {
			t.Fatalf("Sample: %v", err)
		}
		k := cell(dst, 0, 0)
		if k < lo || k > hi {
			t.Fatalf("cell %d outside support [%d,%d]", k, lo, hi)
		}
		obs[k-lo]++
	}
	chi2 := 0.0
	dfUsed := 0
	for k := lo; k <= hi; k++ {
		exp := hypergeometricPMF(k, a, b, n) * float64(draws)
		if exp < 5 {
			continue // skip sparse tail cells
		}
		d := float64(obs[k-lo]) - exp
		chi2 += d * d / exp
		dfUsed++
	}
	if dfUsed < 2 {
		t.Fatal("degenerate goodness-of-fit setup")
	}
	p, err := stats.ChiSquareSurvival(chi2, float64(dfUsed-1))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("Patefield draws do not match hypergeometric: chi2=%v df=%d p=%v", chi2, dfUsed-1, p)
	}
}

func TestSampleMeanMatchesExpectation(t *testing.T) {
	// E[cell(i,j)] = rowTotal_i * colTotal_j / n under the null.
	rng := rand.New(rand.NewSource(4))
	rows := []int{20, 30, 50}
	cols := []int{40, 60}
	s, err := newSampler(rows, cols)
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ := NewTable2(3, 2)
	draws := 5000
	sum := make([]float64, 6)
	for d := 0; d < draws; d++ {
		if err := s.Sample(rng, dst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				sum[i*2+j] += float64(cell(dst, i, j))
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			mean := sum[i*2+j] / float64(draws)
			want := float64(rows[i]) * float64(cols[j]) / 100
			if math.Abs(mean-want) > 0.35 {
				t.Errorf("cell (%d,%d) mean = %v, want ≈%v", i, j, mean, want)
			}
		}
	}
}

func TestSampleDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Single row: table fully determined.
	s, err := newSampler([]int{10}, []int{4, 6})
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ := NewTable2(1, 2)
	if err := s.Sample(rng, dst); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if cell(dst, 0, 0) != 4 || cell(dst, 0, 1) != 6 {
		t.Errorf("single-row table = [%d %d], want [4 6]", cell(dst, 0, 0), cell(dst, 0, 1))
	}
	// Single column.
	s, err = newSampler([]int{3, 7}, []int{10})
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ = NewTable2(2, 1)
	if err := s.Sample(rng, dst); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if cell(dst, 0, 0) != 3 || cell(dst, 1, 0) != 7 {
		t.Errorf("single-col table = [%d %d], want [3 7]", cell(dst, 0, 0), cell(dst, 1, 0))
	}
	// Zero marginals inside the table are fine.
	s, err = newSampler([]int{0, 10}, []int{10, 0})
	if err != nil {
		t.Fatalf("newSampler: %v", err)
	}
	dst, _ = NewTable2(2, 2)
	if err := s.Sample(rng, dst); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if cell(dst, 1, 0) != 10 {
		t.Errorf("forced cell = %d, want 10", cell(dst, 1, 0))
	}
}

func TestCloneIndependence(t *testing.T) {
	tab, _ := NewTable2(2, 2)
	tab.Add(0, 0, 3)
	cl := tab.Clone()
	cl.Add(1, 1, 5)
	if tab.Total() != 3 {
		t.Errorf("clone mutation leaked into original: total = %d", tab.Total())
	}
	if cl.Total() != 8 {
		t.Errorf("clone total = %d, want 8", cl.Total())
	}
}

// Property: sampled tables always preserve marginals, for random shapes and
// random marginals.
func TestQuickSampleMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nr := 1 + r.Intn(5)
		nc := 1 + r.Intn(5)
		// Random cell counts define consistent marginals.
		base, _ := NewTable2(nr, nc)
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				base.Add(i, j, r.Intn(8))
			}
		}
		if base.Total() == 0 {
			base.Add(0, 0, 1)
		}
		s, err := NewSamplerFromTable(base)
		if err != nil {
			return false
		}
		dst, _ := NewTable2(nr, nc)
		for trial := 0; trial < 5; trial++ {
			if err := s.Sample(r, dst); err != nil {
				return false
			}
			if !reflect.DeepEqual(dst.rowTotals, base.rowTotals) {
				return false
			}
			if !reflect.DeepEqual(dst.colTotals, base.colTotals) {
				return false
			}
			for i := 0; i < nr*nc; i++ {
				if dst.counts[i] < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}
