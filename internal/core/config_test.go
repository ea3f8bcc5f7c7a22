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

// freshChiSquare runs every case with an uncached provider on a bare
// relation.
func freshChiSquare(t *testing.T, tab *dataset.Table, cases []viewMemoCase) []independence.Result {
	t.Helper()
	want := make([]independence.Result, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = (independence.ChiSquare{Est: stats.MillerMadow}).TestSet(context.Background(), mem.New(tab), c.x, c.v, c.z); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestViewMemoConcurrentChiSquare: concurrent χ² statements, each goroutine
// with its own tester over one count-cache view, store test results and
// entropies into the view's memo at once. Every result equals a fresh
// uncached run, and single flight computes each test and each entropy once:
// the memo's misses are those of a serial run and sum to the entries it
// holds.
func TestViewMemoConcurrentChiSquare(t *testing.T) {
	ctx := context.Background()
	tab, cases := viewMemoData(t)
	want := freshChiSquare(t, tab, cases)
	// run asks every case in each of goroutines passes, pass g from case g
	// on; concurrently or one pass after another.
	run := func(goroutines int, concurrent bool) (tests, entropies, entries int) {
		cc := countcache.Wrap(mem.New(tab), 0)
		pass := func(g int) {
			tester, err := Config{Method: ChiSquaredMethod}.tester(ctx, cc, nil)
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
				if got != want[i] {
					t.Errorf("pass %d: χ²(%s, %v | %v) = %+v, fresh %+v", g, c.x, c.v, c.z, got, want[i])
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
