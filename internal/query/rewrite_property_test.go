package query

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"hypdb/internal/dataset"
	"hypdb/source/mem"
)

// randomObservational builds a random table with binary treatment/outcome
// and a categorical covariate, dense enough that overlap usually holds.
func randomObservational(r *rand.Rand, n int) *dataset.Table {
	b := dataset.NewBuilder("T", "Z", "Y")
	for i := 0; i < n; i++ {
		z := r.Intn(3)
		tv := 0
		if r.Float64() < 0.2+0.2*float64(z) {
			tv = 1
		}
		y := 0
		if r.Float64() < 0.1+0.15*float64(z)+0.2*float64(tv) {
			y = 1
		}
		b.MustAdd(strconv.Itoa(tv), strconv.Itoa(z), strconv.Itoa(y))
	}
	tab, err := b.Table()
	if err != nil {
		panic(err)
	}
	return tab
}

// TestRewriteBitReproducible: the rewritten answers are a pure function of
// the data, bit for bit. With fractional outcome values the block sums
// depend on summation order, so repeated rewrites of the same data must
// fold the outcome cells in the same order every time.
func TestRewriteBitReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := dataset.NewBuilder("T", "Z", "M", "Y")
	for i := 0; i < 20000; i++ {
		z, m := r.Intn(4), r.Intn(3)
		tv := 0
		if r.Float64() < 0.3+0.1*float64(z) {
			tv = 1
		}
		y := float64(r.Intn(6)+2*tv+z+m) * 0.137
		b.MustAdd(strconv.Itoa(tv), strconv.Itoa(z), strconv.Itoa(m), strconv.FormatFloat(y, 'f', 3, 64))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Treatment: "T", Outcomes: []string{"Y"}}
	bits := func(rw *Rewritten) []uint64 {
		var out []uint64
		for _, row := range rw.Rows {
			for _, a := range row.Avgs {
				out = append(out, math.Float64bits(a))
			}
		}
		return out
	}
	rewrites := map[string]func() (*Rewritten, error){
		"total": func() (*Rewritten, error) {
			return RewriteTotal(context.Background(), mem.New(tab), q, []string{"Z", "M"})
		},
		"direct": func() (*Rewritten, error) {
			return RewriteDirect(context.Background(), mem.New(tab), q, []string{"Z"}, []string{"M"}, "")
		},
	}
	for name, rewrite := range rewrites {
		var first []uint64
		for run := 0; run < 30; run++ {
			rw, err := rewrite()
			if err != nil {
				t.Fatal(err)
			}
			got := bits(rw)
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: run %d answered %v, run 0 %v", name, run, got, first)
			}
		}
	}
}

// Property: adjusted answers are convex combinations of block averages, so
// for a 0/1 outcome they stay within [0,1]; and the per-treatment adjusted
// answer lies between the minimum and maximum of that treatment's block
// averages.
func TestQuickRewriteTotalConvexity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randomObservational(r, 200+r.Intn(800))
		q := Query{Treatment: "T", Outcomes: []string{"Y"}}
		rw, err := RewriteTotal(context.Background(), mem.New(tab), q, []string{"Z"})
		if err != nil {
			return true // overlap can fail on tiny samples; not a violation
		}
		for _, row := range rw.Rows {
			if row.Avgs[0] < -1e-12 || row.Avgs[0] > 1+1e-12 {
				return false
			}
		}
		// Cross-check against a direct computation of the adjustment
		// formula from raw counts.
		want, ok := directAdjustment(tab)
		if !ok {
			return true
		}
		for _, row := range rw.Rows {
			if w, exists := want[row.Treatment]; exists {
				if math.Abs(row.Avgs[0]-w) > 1e-9 {
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

// directAdjustment computes Σ_z avg(Y|t,z)·Pr(z) from scratch over kept
// blocks, independently of the rewrite implementation.
func directAdjustment(tab *dataset.Table) (map[string]float64, bool) {
	tc, _ := tab.Column("T")
	zc, _ := tab.Column("Z")
	yvals, _ := tab.Float("Y")
	type cell struct{ sum, n float64 }
	blocks := map[[2]string]*cell{}
	zTotals := map[string]float64{}
	for i := 0; i < tab.NumRows(); i++ {
		k := [2]string{tc.Value(i), zc.Value(i)}
		c := blocks[k]
		if c == nil {
			c = &cell{}
			blocks[k] = c
		}
		c.sum += yvals[i]
		c.n++
	}
	// Keep z-strata with both treatments.
	kept := map[string]bool{}
	for _, z := range zc.Labels() {
		if blocks[[2]string{"0", z}] != nil && blocks[[2]string{"1", z}] != nil {
			kept[z] = true
		}
	}
	if len(kept) == 0 {
		return nil, false
	}
	total := 0.0
	for z := range kept {
		zTotals[z] = blocks[[2]string{"0", z}].n + blocks[[2]string{"1", z}].n
		total += zTotals[z]
	}
	out := map[string]float64{}
	for _, tv := range []string{"0", "1"} {
		acc := 0.0
		for z := range kept {
			c := blocks[[2]string{tv, z}]
			acc += c.sum / c.n * zTotals[z] / total
		}
		out[tv] = acc
	}
	return out, true
}

// Property: with a single covariate stratum the rewritten answer equals the
// plain group-by answer (adjustment over a constant covariate is a no-op).
func TestQuickRewriteConstantCovariateIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := dataset.NewBuilder("T", "Z", "Y")
		n := 50 + r.Intn(200)
		for i := 0; i < n; i++ {
			b.MustAdd(strconv.Itoa(r.Intn(2)), "only", strconv.Itoa(r.Intn(2)))
		}
		tab, err := b.Table()
		if err != nil {
			return false
		}
		q := Query{Treatment: "T", Outcomes: []string{"Y"}}
		plain, err := Run(context.Background(), mem.New(tab), q)
		if err != nil {
			return true
		}
		rw, err := RewriteTotal(context.Background(), mem.New(tab), q, []string{"Z"})
		if err != nil {
			return true // single treatment value possible on tiny n
		}
		want := map[string]float64{}
		for _, row := range plain.Rows {
			want[row.Treatment] = row.Avgs[0]
		}
		for _, row := range rw.Rows {
			if math.Abs(row.Avgs[0]-want[row.Treatment]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the direct-effect baseline row always reproduces the observed
// E[Y | T = baseline] over the kept blocks (consistency), and all direct
// answers stay within [0,1] for 0/1 outcomes.
func TestQuickRewriteDirectConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := dataset.NewBuilder("T", "M", "Y")
		n := 300 + r.Intn(500)
		for i := 0; i < n; i++ {
			tv := r.Intn(2)
			m := r.Intn(2)
			if r.Float64() < 0.5 {
				m = tv
			}
			y := 0
			if r.Float64() < 0.2+0.4*float64(m) {
				y = 1
			}
			b.MustAdd(strconv.Itoa(tv), strconv.Itoa(m), strconv.Itoa(y))
		}
		tab, err := b.Table()
		if err != nil {
			return false
		}
		q := Query{Treatment: "T", Outcomes: []string{"Y"}}
		rw, err := RewriteDirect(context.Background(), mem.New(tab), q, nil, []string{"M"}, "0")
		if err != nil {
			return true
		}
		for _, row := range rw.Rows {
			if row.Avgs[0] < -1e-12 || row.Avgs[0] > 1+1e-12 {
				return false
			}
		}
		// Consistency only holds exactly when no blocks were pruned.
		if rw.BlocksKept != rw.BlocksTotal {
			return true
		}
		plain, err := Run(context.Background(), mem.New(tab), q)
		if err != nil {
			return false
		}
		var observed float64
		for _, row := range plain.Rows {
			if row.Treatment == "0" {
				observed = row.Avgs[0]
			}
		}
		for _, row := range rw.Rows {
			if row.Treatment == "0" && math.Abs(row.Avgs[0]-observed) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}
