package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source/mem"
)

// viewMemoCase is one χ² statement x ⊥⊥ V | Z.
type viewMemoCase struct {
	x    string
	v, z []string
}

// viewMemoData returns a random table and χ² statements over it whose
// entropy terms overlap, V being a single attribute or a pair.
func viewMemoData(t *testing.T) (*dataset.Table, []viewMemoCase) {
	t.Helper()
	tab, _, err := datagen.Random(datagen.RandomSpec{Nodes: 5, MinCard: 2, MaxCard: 4, Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := tab.Columns()
	var cases []viewMemoCase
	for i, x := range a {
		y, w, u := a[(i+1)%len(a)], a[(i+2)%len(a)], a[(i+3)%len(a)]
		cases = append(cases,
			viewMemoCase{x, []string{y}, nil},
			viewMemoCase{x, []string{y}, []string{w}},
			viewMemoCase{x, []string{y, w}, []string{u}},
		)
	}
	return tab, cases
}

// chi2Config is a χ² configuration with the given estimator.
func chi2Config(est stats.Estimator) Config {
	return Config{Method: ChiSquaredMethod, Estimator: est, EstimatorSet: true}
}

// freshChiSquare runs every case with an uncached provider on a bare
// relation.
func freshChiSquare(t *testing.T, tab *dataset.Table, cases []viewMemoCase, est stats.Estimator) []independence.Result {
	t.Helper()
	want := make([]independence.Result, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = (independence.ChiSquare{Est: est}).TestSet(context.Background(), mem.New(tab), c.x, c.v, c.z); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestViewMemoKeepsEstimatorsApart: χ² with PlugIn, then with MillerMadow,
// on one count-cache view keeps both estimators' entropies in the view's
// memo, and neither is served the other's: each run equals a fresh
// uncached one.
func TestViewMemoKeepsEstimatorsApart(t *testing.T) {
	ctx := context.Background()
	tab, cases := viewMemoData(t)
	cc := countcache.Wrap(mem.New(tab), 0)
	for _, est := range []stats.Estimator{stats.PlugIn, stats.MillerMadow} {
		want := freshChiSquare(t, tab, cases, est)
		tester, err := chi2Config(est).tester(ctx, cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			got, err := tester.TestSet(ctx, cc, c.x, c.v, c.z)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%v: χ²(%s, %v | %v) on the view = %+v, fresh %+v", est, c.x, c.v, c.z, got, want[i])
			}
		}
	}
	if _, misses := cc.Memo().Tally(countcache.Entropies); misses == 0 {
		t.Error("the view's memo kept no χ² entropies")
	}
}

// TestViewMemoConcurrentChiSquare: concurrent χ² statements under two
// estimators, each goroutine with its own tester over one count-cache view,
// store test results and entropies into the view's memo at once. Every
// result equals a fresh uncached run, and single flight computes each test
// and each entropy once: the memo's misses are those of a serial run and
// sum to the entries it holds.
func TestViewMemoConcurrentChiSquare(t *testing.T) {
	ctx := context.Background()
	tab, cases := viewMemoData(t)
	ests := []stats.Estimator{stats.PlugIn, stats.MillerMadow}
	want := make(map[stats.Estimator][]independence.Result)
	for _, est := range ests {
		want[est] = freshChiSquare(t, tab, cases, est)
	}
	// run asks every case in each of goroutines passes, pass g under
	// estimator g mod 2 from case g on; concurrently or one pass after
	// another.
	run := func(goroutines int, concurrent bool) (tests, entropies, entries int) {
		cc := countcache.Wrap(mem.New(tab), 0)
		pass := func(g int) {
			est := ests[g%len(ests)]
			tester, err := chi2Config(est).tester(ctx, cc, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for k := range cases {
				i := (k + g) % len(cases)
				c := cases[i]
				got, err := tester.TestSet(ctx, cc, c.x, c.v, c.z)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[est][i] {
					t.Errorf("pass %d, %v: χ²(%s, %v | %v) = %+v, fresh %+v", g, est, c.x, c.v, c.z, got, want[est][i])
				}
			}
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			if !concurrent {
				pass(g)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass(g)
			}()
		}
		wg.Wait()
		_, tests = cc.Memo().Tally(countcache.Tests)
		_, entropies = cc.Memo().Tally(countcache.Entropies)
		return tests, entropies, cc.Stats().MemoEntries
	}
	serial := fmt.Sprint(run(16, false))
	tests, entropies, entries := run(16, true)
	if got := fmt.Sprint(tests, entropies, entries); got != serial {
		t.Errorf("concurrent (tests, entropies, entries) computed = %s, serial %s", got, serial)
	}
	if tests+entropies != entries {
		t.Errorf("misses %d + %d != entries %d", tests, entropies, entries)
	}
}
