package independence_test

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

// TestViewMemoKeepsEstimatorsApart: χ² providers with PlugIn and with
// MillerMadow keep their entropies in one count-cache view's memo, and
// neither is served the other's. Run one estimator's pass after another or
// all passes at once, every result equals a fresh uncached one, and single
// flight computes each entropy once: the concurrent run's misses are the
// serial run's and sum to the entries the memo holds.
func TestViewMemoKeepsEstimatorsApart(t *testing.T) {
	ctx := context.Background()
	tab, cases := viewMemoData(t)
	ests := []stats.Estimator{stats.PlugIn, stats.MillerMadow}
	want := make(map[stats.Estimator][]independence.Result)
	for _, est := range ests {
		want[est] = make([]independence.Result, len(cases))
		for i, c := range cases {
			var err error
			if want[est][i], err = (independence.ChiSquare{Est: est}).TestSet(ctx, mem.New(tab), c.x, c.v, c.z); err != nil {
				t.Fatal(err)
			}
		}
	}
	// run asks every case in each of goroutines passes, pass g under
	// estimator g mod 2 from case g on; concurrently or one pass after
	// another.
	run := func(goroutines int, concurrent bool) (entropies, entries int) {
		cc := countcache.Wrap(mem.New(tab), 0)
		pass := func(g int) {
			est := ests[g%len(ests)]
			p, err := independence.NewProvider(ctx, cc, est, cc.Memo())
			if err != nil {
				t.Error(err)
				return
			}
			tester := independence.ChiSquare{Provider: p, Est: est}
			for k := range cases {
				i := (k + g) % len(cases)
				c := cases[i]
				got, err := tester.TestSet(ctx, cc, c.x, c.v, c.z)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[est][i] {
					t.Errorf("pass %d, %v: χ²(%s, %v | %v) on the view = %+v, fresh %+v", g, est, c.x, c.v, c.z, got, want[est][i])
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
		_, entropies = cc.Memo().Tally(countcache.Entropies)
		return entropies, cc.Stats().MemoEntries
	}
	entropies, entries := run(16, false)
	if entropies == 0 {
		t.Error("the view's memo kept no χ² entropies")
	}
	if entropies != entries {
		t.Errorf("serial: %d entropies computed, %d memo entries", entropies, entries)
	}
	serial := fmt.Sprint(entropies, entries)
	if got := fmt.Sprint(run(16, true)); got != serial {
		t.Errorf("concurrent (entropies, entries) = %s, serial %s", got, serial)
	}
}
