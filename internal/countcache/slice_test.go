package countcache

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/memsql"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sqldb"
)

// sliceTable builds 400 rows over A, B, C and D whose labels need SQL
// quoting. The restrictions below drop labels that sort, and first occur,
// before others, so a restricted dictionary's codes differ from the root's
// on both backends.
func sliceTable(t testing.TB) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	a := []string{"O'Hare", `say "hi"`, "a,b", "plain"}
	b := []string{"b0", "b1", "b2"}
	c := []string{"no", "yes"}
	d := []string{"d 0", "d'1", "d2", "d3", "d4"}
	tb := dataset.NewBuilder("A", "B", "C", "D")
	for r := 0; r < 400; r++ {
		i := rng.Intn(len(a))
		tb.MustAdd(a[i], b[(i+rng.Intn(2))%len(b)], c[rng.Intn(len(c))], d[rng.Intn(len(d))])
	}
	tab, err := tb.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sliceBackends returns one opener per backend of the differential test:
// each call opens a fresh relation over tab, on mem or on sqldb over the
// in-process SQL driver, for the test t it is given.
func sliceBackends(t *testing.T, tab *dataset.Table) map[string]func(t *testing.T) source.Relation {
	name := "slice_" + t.Name()
	memsql.Register(name, tab)
	t.Cleanup(func() { memsql.Unregister(name) })
	return map[string]func(t *testing.T) source.Relation{
		"mem": func(*testing.T) source.Relation { return mem.New(tab) },
		"sqldb": func(t *testing.T) source.Relation {
			db, err := memsql.Open("")
			if err != nil {
				t.Fatal(err)
			}
			rel, err := sqldb.Open(context.Background(), db, name)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rel.Close() })
			return rel
		},
	}
}

// sliceCases are the restrictions of the differential test. Each is a chain
// of predicates, restricted one below the other, and sliced tells whether
// the restricted view can be sliced out of the top's views.
var sliceCases = []struct {
	name   string
	preds  []source.Predicate
	sliced bool
}{
	{"in", []source.Predicate{dataset.In{Attr: "A", Values: []string{`say "hi"`, "plain"}}}, true},
	{"eq", []source.Predicate{dataset.Eq{Attr: "D", Value: "d'1"}}, true},
	{"not", []source.Predicate{dataset.Not{Pred: dataset.Eq{Attr: "A", Value: "O'Hare"}}}, true},
	{"or", []source.Predicate{dataset.Or{
		dataset.Eq{Attr: "A", Value: "a,b"},
		dataset.In{Attr: "D", Values: []string{"d3", "d4"}},
	}}, true},
	{"and", []source.Predicate{dataset.And{
		dataset.In{Attr: "A", Values: []string{"O'Hare", "plain"}},
		dataset.Not{Pred: dataset.Eq{Attr: "C", Value: "no"}},
	}}, true},
	{"all", []source.Predicate{dataset.All{}}, true},
	{"nested", []source.Predicate{
		dataset.Not{Pred: dataset.Eq{Attr: "B", Value: "b0"}},
		dataset.In{Attr: "D", Values: []string{"d 0", "d2", "d4"}},
	}, true},
	{"absent value", []source.Predicate{dataset.In{Attr: "A", Values: []string{"plain", "missing"}}}, false},
}

// restrictChain restricts rel by each predicate in turn.
func restrictChain(rel *Relation, preds []source.Predicate) (*Relation, error) {
	var out source.Relation = rel
	for _, p := range preds {
		var err error
		if out, err = out.Restrict(context.Background(), p); err != nil {
			return nil, err
		}
	}
	return out.(*Relation), nil
}

// subsets returns every subset of attrs, in attrs order.
func subsets(attrs []string) [][]string {
	var out [][]string
	for m := 0; m < 1<<len(attrs); m++ {
		var s []string
		for i, a := range attrs {
			if m&(1<<i) != 0 {
				s = append(s, a)
			}
		}
		out = append(out, s)
	}
	return out
}

// TestRestrictSliceMatchesBackend is the differential test of slicing: on
// mem and on sqldb over the in-process SQL driver, a restricted view whose
// top holds covers — the whole schema and every three-attribute view, so a
// cover that misses the predicate's attributes is on hand — must equal the
// same restriction of a top that holds no view, which asks the backend:
// NumRows (read first, so it is itself sliced), Labels, and the attributes,
// cardinalities, cells and total of the view over every subset of the
// schema. It covers In, Eq, Not, Or, And and All, a nested restriction,
// labels that need SQL quoting, and a predicate value absent from the
// dictionary, which must not slice. A sliced sqldb view derives every
// dictionary from the top's views and loads none from the backend.
func TestRestrictSliceMatchesBackend(t *testing.T) {
	ctx := context.Background()
	tab := sliceTable(t)
	attrs := tab.Columns()
	for backend, open := range sliceBackends(t, tab) {
		for _, tc := range sliceCases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				top := Wrap(open(t), 0)
				for _, s := range [][]string{attrs, {"A", "B", "C"}, {"A", "B", "D"}, {"A", "C", "D"}, {"B", "C", "D"}} {
					if err := top.Prime(ctx, s, 0); err != nil {
						t.Fatal(err)
					}
				}
				got, err := restrictChain(top, tc.preds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := restrictChain(Wrap(open(t), 0), tc.preds)
				if err != nil {
					t.Fatal(err)
				}

				gn, err := got.NumRows(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wn, err := want.NumRows(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if gn != wn {
					t.Errorf("NumRows = %d, backend %d", gn, wn)
				}
				for _, a := range attrs {
					gl, err := got.Labels(ctx, a)
					if err != nil {
						t.Fatal(err)
					}
					wl, err := want.Labels(ctx, a)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gl, wl) {
						t.Errorf("Labels(%s) = %q, backend %q", a, gl, wl)
					}
				}
				for _, s := range subsets(attrs) {
					g, err := got.DenseCounts(ctx, s, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					w, err := want.DenseCounts(ctx, s, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					if (g == nil) != (w == nil) || g != nil && !sameCounts(g, w) {
						t.Fatalf("view over %v:\n sliced  %+v\n backend %+v", s, g, w)
					}
				}
				st := got.Stats()
				if tc.sliced && (st.Fetches != 0 || st.Derived == 0) {
					t.Errorf("restricted view asked the backend: %+v", st)
				}
				if !tc.sliced && st.Fetches == 0 {
					t.Errorf("restricted view was sliced although its predicate names a value absent from the dictionary: %+v", st)
				}
				if sq, ok := got.Inner().(*sqldb.Relation); ok && tc.sliced {
					if q := sq.Stats().DictQueries; q != 0 {
						t.Errorf("restricted sqldb view loaded %d dictionaries, want 0: each is derived from the top's views", q)
					}
				}
				checkIndex(t, top)
			})
		}
	}
}

// TestRestrictSliceRace: restricted views slice out of one cover while the
// top projects it, so the first uses of the cover race to build and publish
// its occupied-cell list. Every view must equal the backend's, and the
// list must be charged to the ledger once.
func TestRestrictSliceRace(t *testing.T) {
	ctx := context.Background()
	tab := sliceTable(t)
	attrs := tab.Columns()
	req := []string{"B", "C"}
	// want[i] is case i's view over req from the backend (the last entry,
	// the unrestricted one).
	want := make([]*dataset.DenseCounts, len(sliceCases)+1)
	for i := range want {
		var preds []source.Predicate
		if i < len(sliceCases) {
			preds = sliceCases[i].preds
		}
		rel, err := restrictChain(Wrap(mem.New(tab), 0), preds)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = rel.DenseCounts(ctx, req, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		top := Wrap(mem.New(tab), 0)
		if err := top.Prime(ctx, attrs, 0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := len(sliceCases)
				if g%2 == 1 {
					i = g / 2 % len(sliceCases)
				}
				var preds []source.Predicate
				if i < len(sliceCases) {
					preds = sliceCases[i].preds
				}
				rel, err := restrictChain(top, preds)
				if err != nil {
					errs <- err
					return
				}
				got, err := rel.DenseCounts(ctx, req, nil, 0)
				if err != nil {
					errs <- err
					return
				}
				if got == nil || !sameCounts(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d: view over %v differs from the backend's", g, req)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		checkIndex(t, top)
	}
}

// TestRestrictSliceNoCoverAllocs: a restricted view's miss under a top that
// lists no view over a predicate attribute gives up on slicing without
// allocating, however often it misses.
func TestRestrictSliceNoCoverAllocs(t *testing.T) {
	ctx := context.Background()
	top := Wrap(mem.New(sliceTable(t)), 0)
	if err := top.Prime(ctx, []string{"B", "C"}, 0); err != nil {
		t.Fatal(err)
	}
	view, err := restrictChain(top, []source.Predicate{dataset.Eq{Attr: "A", Value: "plain"}})
	if err != nil {
		t.Fatal(err)
	}
	set, _ := setOf(view.names, []string{"B"})
	if allocs := testing.AllocsPerRun(100, func() {
		if dc, err := view.slice(ctx, set, 0); dc != nil || err != nil {
			t.Fatalf("slice without a cover = (%v, %v)", dc, err)
		}
	}); allocs != 0 {
		t.Errorf("a miss with no cover allocated %v times", allocs)
	}
}
