package core

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source/mem"
)

// TestCurtailedResultNotServedToBalanceTest: covariate discovery on a
// count-cache view stores curtailed results in the view's memo; a balance
// test of the same (x, y, Z) on the same view reads the p-value, so it must
// get the full run, not the bound.
func TestCurtailedResultNotServedToBalanceTest(t *testing.T) {
	ctx := context.Background()
	// T depends on A; N is noise, so Grow-Shrink admits A and then finds
	// T ⊥⊥ N | A, a verdict-only test that stops early.
	rng := rand.New(rand.NewSource(3))
	b := dataset.NewBuilder("T", "A", "N")
	for i := 0; i < 2000; i++ {
		a := rng.Intn(2)
		tv := a
		if rng.Float64() < 0.2 {
			tv = 1 - tv
		}
		b.MustAdd(strconv.Itoa(tv), strconv.Itoa(a), strconv.Itoa(rng.Intn(3)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: MITMethod, Permutations: 200, Seed: 1}
	view := countcache.Wrap(mem.New(tab), 0)
	if _, err := DiscoverCovariates(ctx, view, "T", []string{"A", "N"}, nil, cfg); err != nil {
		t.Fatal(err)
	}

	verdictKey := memoTester{fingerprint: cfg.verdictOnly().testFingerprint()}.key("T", []string{"N"}, []string{"A"})
	stored, ok := view.Memo().Load(countcache.Tests, verdictKey)
	if !ok || !stored.(independence.Result).Curtailed {
		t.Fatalf("CD left no curtailed T ⊥⊥ N | A in the memo (%v, %+v); the fixture no longer exercises the memo", ok, stored)
	}

	got, err := cfg.TestBalance(ctx, view, "T", []string{"N"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := independence.MIT{Permutations: 200, Seed: 1, Est: stats.MillerMadow}.Test(ctx, mem.New(tab), "T", "N", []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("TestBalance after CD on one view = %+v, want the full run %+v", got, want)
	}
}

// TestMemoKeySeparatesVariableSets: the test memo's key tells a variable
// set from a smaller set conditioned on the rest, so a balance test of
// T ⊥⊥ {A,B} is never served the result of T ⊥⊥ A | B, or the reverse.
func TestMemoKeySeparatesVariableSets(t *testing.T) {
	mt := memoTester{fingerprint: Config{}.testFingerprint()}
	joint := mt.key("T", []string{"A", "B"}, nil)
	split := mt.key("T", []string{"A"}, []string{"B"})
	if joint == split {
		t.Errorf("key(T, {A,B}, ∅) = key(T, {A}, {B}) = %q", joint)
	}
}

// TestCDCurtailmentChangesNoDiscovery: over seeded random DAGs, covariate
// discovery with verdict-only permutation tests that stop early returns the
// same CDResult, test counts included, as with every replicate drawn.
func TestCDCurtailmentChangesNoDiscovery(t *testing.T) {
	ctx := context.Background()
	curtailed := 0
	for seed := int64(1); seed <= 20; seed++ {
		// Few rows keep HyMIT on its MIT fallback for most conditioning sets.
		tab, _, err := datagen.Random(datagen.RandomSpec{Nodes: 6, AvgDegree: 2.5, MinCard: 2, MaxCard: 3, Rows: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		attrs := tab.Columns()
		target := attrs[int(seed)%len(attrs)]
		cands := excludeStr(attrs, target)
		for _, method := range []TestMethod{MITMethod, MITSamplingMethod, HyMITMethod} {
			cfg := Config{Method: method, Permutations: 200, Seed: seed, MaxCondSet: 2}
			full := cfg
			full.fullCDTests = true
			got, err := DiscoverCovariates(ctx, countcache.Wrap(mem.New(tab), 0), target, cands, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DiscoverCovariates(ctx, countcache.Wrap(mem.New(tab), 0), target, cands, nil, full)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %v: curtailed CD %+v, full CD %+v", seed, method, got, want)
			}
			// The comparison is only worth something if CD's testers
			// curtail on these tables: count the target's marginal tests
			// that do.
			tester, err := cfg.verdictOnly().tester(ctx, mem.New(tab), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				r, err := tester.Test(ctx, mem.New(tab), target, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				if r.Curtailed {
					curtailed++
				}
			}
		}
	}
	if curtailed == 0 {
		t.Error("no marginal test of any target was curtailed; the fixtures do not exercise curtailment")
	}
}
