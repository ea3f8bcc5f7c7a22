package independence

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

// curtailFixture is one seeded MIT test of the exactness suite.
type curtailFixture struct {
	rel      source.Relation
	z        []string
	sampling bool
	seed     int64
}

// curtailFixtures builds n seeded tables whose X–Y dependence ranges from
// none to strong, conditioned on one small Z or on a pair with 36 groups
// (where group sampling keeps only part of them), with and without
// SampleGroups.
func curtailFixtures(t testing.TB, n int) []curtailFixture {
	t.Helper()
	strengths := []float64{0, 0.01, 0.03, 0.06, 0.1, 0.5}
	out := make([]curtailFixture, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		wide := i%20 == 0
		cardX, cardY, cardZ := 2+rng.Intn(2), 2+rng.Intn(2), 1+rng.Intn(3)
		rows := 40 + rng.Intn(160)
		if wide {
			cardZ, rows = 6, 240
		}
		dep := strengths[i%len(strengths)]
		b := dataset.NewBuilder("X", "Y", "Z1", "Z2")
		for r := 0; r < rows; r++ {
			x, y := rng.Intn(cardX), rng.Intn(cardY)
			if rng.Float64() < dep {
				y = x % cardY
			}
			b.MustAdd(strconv.Itoa(x), strconv.Itoa(y), strconv.Itoa(rng.Intn(cardZ)), strconv.Itoa(rng.Intn(cardZ)))
		}
		tab, err := b.Table()
		if err != nil {
			t.Fatal(err)
		}
		z := []string{"Z1"}
		if wide {
			z = []string{"Z1", "Z2"}
		}
		out[i] = curtailFixture{rel: mem.New(tab), z: z, sampling: i%2 == 1, seed: int64(i)*7 + 1}
	}
	return out
}

// exceedances recovers the exceedance count of a full run from its p-value.
func exceedances(r Result, perms int) int {
	return int(math.Round(r.PValue * float64(perms)))
}

// TestCurtailAt: k is the smallest count whose ratio passes Decision's
// comparison, and levels no count reaches disable curtailment.
func TestCurtailAt(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		perms int
		want  int
	}{
		{0.01, 200, 2}, {0.01, 100, 1}, {0.01, 1000, 10}, {0.05, 200, 10},
		{0.05, 100, 5}, {0.03, 7, 1}, {1, 50, 50}, {1.5, 50, 0}, {0, 200, 0},
		{-0.1, 200, 0}, {math.NaN(), 200, 0},
	} {
		got := curtailAt(tc.alpha, tc.perms)
		if got != tc.want {
			t.Errorf("curtailAt(%v, %d) = %d, want %d", tc.alpha, tc.perms, got, tc.want)
		}
		if got > 0 && (float64(got)/float64(tc.perms) < tc.alpha || float64(got-1)/float64(tc.perms) >= tc.alpha) {
			t.Errorf("curtailAt(%v, %d) = %d is not the smallest deciding count", tc.alpha, tc.perms, got)
		}
	}
}

// TestMITCurtailedExact: a curtailed MIT gives the full run's verdict, is
// curtailed exactly when the full run reaches k, is bit-identical serially
// and in parallel at any GOMAXPROCS, and when not curtailed returns the full
// Result bit for bit. The fixtures must cover tests that reach k on the last
// replicate and tests that never reach it.
func TestMITCurtailedExact(t *testing.T) {
	ctx := context.Background()
	fixtures := curtailFixtures(t, 200)
	// Seeds whose run reaches k exactly on the last replicate of a fixture
	// table, found by search; each is checked below, not assumed.
	lastHits := []struct {
		fixture int
		seed    int64
		perms   int
		alpha   float64
	}{
		{10, 394, 100, 0.01}, {4, 699, 100, 0.05}, {10, 998, 200, 0.01},
		{4, 345, 200, 0.05}, {18, 2058, 1000, 0.05},
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	var curtailed, never, last int
	check := func(fx curtailFixture, perms int, alphas []float64) {
		t.Helper()
		base := MIT{Permutations: perms, Seed: fx.seed, SampleGroups: fx.sampling}
		full, err := base.Test(ctx, fx.rel, "X", "Y", fx.z)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range alphas {
			k := curtailAt(alpha, perms)
			cur := base
			cur.StopAlpha = alpha
			serial, err := cur.Test(ctx, fx.rel, "X", "Y", fx.z)
			if err != nil {
				t.Fatal(err)
			}
			name := "seed=" + strconv.FormatInt(fx.seed, 10) + " perms=" + strconv.Itoa(perms) +
				" alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64)
			if Decision(serial, alpha) != Decision(full, alpha) {
				t.Errorf("%s: curtailed verdict %v, full verdict %v", name, Decision(serial, alpha), Decision(full, alpha))
			}
			if serial.Curtailed != (exceedances(full, perms) >= k) {
				t.Errorf("%s: Curtailed=%v with %d full exceedances and k=%d", name, serial.Curtailed, exceedances(full, perms), k)
			}
			if serial.Curtailed {
				want := Result{MI: full.MI, PValue: float64(k) / float64(perms), Method: full.Method, Groups: full.Groups, Curtailed: true}
				if serial != want {
					t.Errorf("%s: curtailed %+v, want %+v", name, serial, want)
				}
				curtailed++
				if exceedances(full, perms) == k {
					prefix, err := MIT{Permutations: perms - 1, Seed: fx.seed, SampleGroups: fx.sampling}.Test(ctx, fx.rel, "X", "Y", fx.z)
					if err != nil {
						t.Fatal(err)
					}
					if exceedances(prefix, perms-1) == k-1 {
						last++
					}
				}
			} else {
				if serial != full {
					t.Errorf("%s: uncurtailed %+v differs from full %+v", name, serial, full)
				}
				never++
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				par := cur
				par.Parallel = true
				got, err := par.Test(ctx, fx.rel, "X", "Y", fx.z)
				runtime.GOMAXPROCS(orig)
				if err != nil {
					t.Fatal(err)
				}
				if got != serial {
					t.Errorf("%s GOMAXPROCS=%d: parallel %+v, serial %+v", name, procs, got, serial)
				}
			}
		}
	}
	for _, fx := range fixtures {
		for _, perms := range []int{100, 200, 1000} {
			check(fx, perms, []float64{0.01, 0.05})
		}
	}
	for _, h := range lastHits {
		fx := fixtures[h.fixture]
		fx.seed = h.seed
		before := last
		check(fx, h.perms, []float64{h.alpha})
		if last != before+1 {
			t.Errorf("fixture %d seed %d perms %d alpha %v no longer reaches k on the last replicate", h.fixture, h.seed, h.perms, h.alpha)
		}
	}
	t.Logf("%d curtailed (%d deciding on the last replicate), %d never reaching k", curtailed, last, never)
	if curtailed == 0 || never == 0 || last == 0 {
		t.Errorf("fixtures must cover curtailed runs, runs that never reach k and runs deciding on the last replicate")
	}
}

// BenchmarkMITVerdict times one verdict-only MIT test at 200 permutations
// on an informative table where X ⊥⊥ Y | Z holds, with every replicate
// drawn and curtailed at α = 0.01.
func BenchmarkMITVerdict(b *testing.B) {
	ctx := context.Background()
	rel := mem.New(independentData(b, 2000, 5))
	for _, bc := range []struct {
		name string
		stop float64
	}{{"full", 0}, {"curtailed", DefaultAlpha}} {
		b.Run(bc.name, func(b *testing.B) {
			m := MIT{Permutations: 200, Seed: 1, StopAlpha: bc.stop}
			for b.Loop() {
				if _, err := m.Test(ctx, rel, "X", "Y", []string{"Z"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
