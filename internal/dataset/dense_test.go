package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// randomDenseTable builds a table of k categorical columns with the given
// cardinalities and n rows.
func randomDenseTable(t testing.TB, n int, cards []int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, len(cards))
	for i := range cards {
		names[i] = "A" + strconv.Itoa(i)
	}
	b := NewBuilder(names...)
	vals := make([]string, len(cards))
	for i := 0; i < n; i++ {
		for j, c := range cards {
			vals[j] = "v" + strconv.Itoa(rng.Intn(c))
		}
		b.MustAdd(vals...)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// mapCounts is the historical sparse tabulation, kept here as the oracle the
// dense kernel must agree with.
func mapCounts(t *Table, pred Predicate, attrs ...string) (map[GroupKey]int, error) {
	var match []bool
	if pred != nil {
		var err error
		match, err = pred.Eval(t)
		if err != nil {
			return nil, err
		}
	}
	return mapCountsRange(t, match, 0, t.NumRows(), attrs...)
}

// mapCountsRange is mapCounts over rows [lo, hi) under a row mask (all rows
// when match is nil).
func mapCountsRange(t *Table, match []bool, lo, hi int, attrs ...string) (map[GroupKey]int, error) {
	cols := make([]*Column, len(attrs))
	for j, a := range attrs {
		c, err := t.Column(a)
		if err != nil {
			return nil, err
		}
		cols[j] = c
	}
	m := make(map[GroupKey]int)
	codes := make([]int32, len(cols))
	for i := lo; i < hi; i++ {
		if match == nil || match[i] {
			for j, c := range cols {
				codes[j] = c.Code(i)
			}
			m[EncodeKey(codes...)]++
		}
	}
	return m, nil
}

// TestDenseCountsEquivalence is the core property: for random tables,
// attribute subsets and predicates, Tabulate and the map oracle
// produce identical count maps — including empty attribute lists (the global
// row count) and predicates that match nothing. Tabulate's sparse form, forced
// by a one-cell budget, agrees as well.
func TestDenseCountsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nCols := 1 + rng.Intn(4)
		cards := make([]int, nCols)
		for i := range cards {
			cards[i] = 1 + rng.Intn(5)
		}
		tab := randomDenseTable(t, 10+rng.Intn(400), cards, seed^0x51)

		names := tab.Columns()
		subsets := [][]string{nil, {names[0]}, names}
		if nCols > 1 {
			subsets = append(subsets, []string{names[nCols-1], names[0]})
		}
		preds := []Predicate{
			nil,
			Eq{Attr: names[0], Value: "v0"},
			Eq{Attr: names[0], Value: "no-such-label"},
			And{Eq{Attr: names[0], Value: "v0"}, Not{Pred: Eq{Attr: names[nCols-1], Value: "v1"}}},
		}
		for _, attrs := range subsets {
			for _, pred := range preds {
				want, err := mapCounts(tab, pred, attrs...)
				if err != nil {
					t.Fatal(err)
				}
				// Budget 1 forces the sparse form onto every view of more
				// than one cell.
				for _, budget := range []int{0, 1} {
					dc, err := tab.Tabulate(pred, budget, attrs...)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dc.Map(), want) {
						t.Fatalf("seed %d attrs %v pred %v budget %d: tabulated %v != map %v", seed, attrs, pred, budget, dc.Map(), want)
					}
					if dc.Total != mapTotal(want) {
						t.Fatalf("seed %d attrs %v budget %d: Total %d, want %d", seed, attrs, budget, dc.Total, mapTotal(want))
					}
					if dc.NonZero() != len(want) {
						t.Fatalf("seed %d attrs %v budget %d: NonZero %d, want %d", seed, attrs, budget, dc.NonZero(), len(want))
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDenseProjectEquivalence: marginalizing a view onto any ordered
// attribute subset matches counting that subset directly, including
// reordered projections. The dense form projects into the dense form; the
// sparse form projects into the sparse form, its occupied cells in the
// direct tabulation's cell order — also with codes at or above 256, where
// encoded-key order and code order part ways.
func TestDenseProjectEquivalence(t *testing.T) {
	small := randomDenseTable(t, 700, []int{3, 4, 2, 5}, 7)
	wide := randomDenseTable(t, 2000, []int{2, 300, 3, 4}, 8)
	cases := [][]int{{0}, {1, 2}, {3, 0}, {2, 1, 0}, {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3}, {}}
	for _, tab := range []*Table{small, wide} {
		names := tab.Columns()
		full, err := tab.Tabulate(nil, 0, names...)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparseCounts(names, full.Cards, full.Map())
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range cases {
			attrs := make([]string, len(keep))
			for i, p := range keep {
				attrs[i] = names[p]
			}
			want, err := tab.Tabulate(nil, 0, attrs...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := full.Project(keep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Cells, want.Cells) {
				t.Errorf("projection %v: cells %v != direct %v", keep, got.Cells, want.Cells)
			}
			if got.Total != want.Total {
				t.Errorf("projection %v: total %d != %d", keep, got.Total, want.Total)
			}
			if !reflect.DeepEqual(got.Map(), want.Map()) {
				t.Errorf("projection %v: map form differs", keep)
			}

			sp, err := sparse.Project(keep)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Cells != nil {
				t.Fatalf("sparse projection %v carries a Cells array", keep)
			}
			var occupied []int
			for _, c := range want.Cells {
				if c > 0 {
					occupied = append(occupied, c)
				}
			}
			if !reflect.DeepEqual(sp.CellCounts(), occupied) {
				t.Errorf("sparse projection %v: cells %v, direct occupied cells %v", keep, sp.CellCounts(), occupied)
			}
			if sp.Total != want.Total || !slices.Equal(sp.Attrs, want.Attrs) || !slices.Equal(sp.Cards, want.Cards) {
				t.Errorf("sparse projection %v: (%v %v %d), direct (%v %v %d)", keep, sp.Attrs, sp.Cards, sp.Total, want.Attrs, want.Cards, want.Total)
			}
			if !reflect.DeepEqual(sp.Map(), want.Map()) {
				t.Errorf("sparse projection %v: map form differs", keep)
			}
			if !reflect.DeepEqual(sp.GroupBy(len(keep)/2), want.GroupBy(len(keep)/2)) {
				t.Errorf("sparse projection %v: GroupBy differs", keep)
			}
		}
		// One scratch view takes dense and sparse projections in turn, as a
		// pooled scratch does when a backend serves both forms: each result
		// equals a fresh Project, with no list or Cells left from before.
		var dst DenseCounts
		for i, keep := range append(cases, cases...) {
			src := []*DenseCounts{full, sparse}[(i+i/len(cases))%2]
			if err := src.ProjectInto(&dst, keep); err != nil {
				t.Fatal(err)
			}
			want, err := src.Project(keep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&dst, want) {
				t.Errorf("ProjectInto a reused scratch view, %v onto %v: differs from Project", src.Attrs, keep)
			}
		}
		for _, v := range []*DenseCounts{full, sparse} {
			if _, err := v.Project([]int{0, 0}); err == nil {
				t.Error("duplicate projection position accepted")
			}
			if _, err := v.Project([]int{9}); err == nil {
				t.Error("out-of-range projection position accepted")
			}
		}
	}
}

// TestSparseFormRejectsDenseOnlyOps: the storage-layer operations that need
// a Cells array fail on the sparse form instead of returning a view whose
// Total disagrees with its cells, or panicking.
func TestSparseFormRejectsDenseOnlyOps(t *testing.T) {
	tab := randomDenseTable(t, 200, []int{3, 4}, 9)
	dense, err := tab.Tabulate(nil, 0, tab.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseCounts(dense.Attrs, dense.Cards, dense.Map())
	if err != nil {
		t.Fatal(err)
	}
	if g, err := sparse.Grown([]int{4, 5}); err == nil {
		t.Errorf("Grown on the sparse form returned total %d over cells %v", g.Total, g.Cells)
	}
}

// TestSparseFormMatchesDense: every consumer accessor answers identically
// on the dense form of a tabulation and on its sparse form — including the
// global count, empty selections and codes at or above 256, where encoded-
// key order and code order part ways.
func TestSparseFormMatchesDense(t *testing.T) {
	wide := randomDenseTable(t, 3000, []int{300, 3, 2}, 23)
	small := randomDenseTable(t, 400, []int{4, 3, 2, 5}, 29)
	cases := []struct {
		name  string
		tab   *Table
		pred  Predicate
		attrs []string
	}{
		{"global", small, nil, nil},
		{"single", small, nil, []string{"A0"}},
		{"pair", small, nil, []string{"A1", "A3"}},
		{"all", small, nil, []string{"A0", "A1", "A2", "A3"}},
		{"reordered", small, nil, []string{"A3", "A0", "A2"}},
		{"selected", small, Eq{Attr: "A0", Value: "v1"}, []string{"A1", "A2"}},
		{"empty selection", small, Eq{Attr: "A0", Value: "no-such-label"}, []string{"A0", "A1"}},
		{"wide codes", wide, nil, []string{"A1", "A0", "A2"}},
		{"wide lead", wide, nil, []string{"A0", "A2", "A1"}},
	}
	sortedNonZero := func(counts []int) []int {
		var out []int
		for _, c := range counts {
			if c > 0 {
				out = append(out, c)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dense, err := tc.tab.Tabulate(tc.pred, 0, tc.attrs...)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := NewSparseCounts(tc.attrs, dense.Cards, dense.Map())
			if err != nil {
				t.Fatal(err)
			}
			if sparse.Cells != nil {
				t.Fatal("sparse form carries a Cells array")
			}
			if sparse.Total != dense.Total || sparse.NonZero() != dense.NonZero() {
				t.Errorf("total/non-zero: sparse (%d,%d), dense (%d,%d)", sparse.Total, sparse.NonZero(), dense.Total, dense.NonZero())
			}
			if got, want := sortedNonZero(sparse.CellCounts()), sortedNonZero(dense.CellCounts()); !reflect.DeepEqual(got, want) {
				t.Errorf("CellCounts: sparse %v, dense %v", got, want)
			}
			if !reflect.DeepEqual(sparse.Map(), dense.Map()) {
				t.Error("Map differs")
			}
			for i, a := range tc.attrs {
				direct, err := tc.tab.Tabulate(tc.pred, 0, a)
				if err != nil {
					t.Fatal(err)
				}
				if got := sparse.Marginal(i); !reflect.DeepEqual(got, direct.Cells) {
					t.Errorf("Marginal(%d): sparse %v, direct %v", i, got, direct.Cells)
				}
				if got := dense.Marginal(i); !reflect.DeepEqual(got, direct.Cells) {
					t.Errorf("Marginal(%d): dense %v, direct %v", i, got, direct.Cells)
				}
			}
			for k := 0; k <= len(tc.attrs); k++ {
				got, want := sparse.GroupBy(k), dense.GroupBy(k)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GroupBy(%d) differs", k)
				}
				for i := 1; i < len(want); i++ {
					if want[i-1].Key >= want[i].Key {
						t.Fatalf("GroupBy(%d) not in encoded-key order at %d", k, i)
					}
				}
			}
		})
	}
	if _, err := NewSparseCounts([]string{"a"}, []int{2}, map[GroupKey]int{EncodeKey(2): 1}); err == nil {
		t.Error("out-of-dictionary code accepted")
	}
	if _, err := NewSparseCounts([]string{"a", "b"}, []int{2, 2}, map[GroupKey]int{EncodeKey(1): 1}); err == nil {
		t.Error("short key accepted")
	}
}

// TestDenseGroupByEquivalence: GroupBy preserves the historical output
// exactly — group order, key bytes and row order.
func TestDenseGroupByEquivalence(t *testing.T) {
	tab := randomDenseTable(t, 500, []int{3, 4}, 13)
	names := tab.Columns()
	groups, err := tab.GroupBy(names...)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: a map partition by encoded key.
	m := map[GroupKey][]int{}
	for i := 0; i < tab.NumRows(); i++ {
		k := EncodeKey(tab.MustColumn(names[0]).Code(i), tab.MustColumn(names[1]).Code(i))
		m[k] = append(m[k], i)
	}
	if len(groups) != len(m) {
		t.Fatalf("got %d groups, want %d", len(groups), len(m))
	}
	for i, g := range groups {
		if i > 0 && !(groups[i-1].Key < g.Key) {
			t.Fatalf("groups not sorted at %d", i)
		}
		if !reflect.DeepEqual(g.Rows, m[g.Key]) {
			t.Fatalf("group %v rows differ", g.Key.Codes())
		}
	}
}

// TestDenseParallelScan exercises the chunked parallel tabulation (row count
// above the fan-out threshold) and checks it against the serial oracle; run
// under -race this doubles as the data-race check of the worker merge.
func TestDenseParallelScan(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	tab := randomDenseTable(t, parallelMinRows+1234, []int{5, 3, 2}, 17)
	names := tab.Columns()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc, err := tab.Tabulate(nil, 0, names...)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := mapCounts(tab, nil, names...)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(dc.Map(), want) {
				t.Error("parallel dense disagrees with serial map oracle")
			}
			if dc.Total != tab.NumRows() {
				t.Errorf("Total %d, want %d", dc.Total, tab.NumRows())
			}
		}()
	}
	wg.Wait()
}

// codedTable builds an n-row table whose columns have exactly the given
// cardinalities, every label in the dictionary whether or not a row uses it;
// code(i, j) is row i's code in column j.
func codedTable(t testing.TB, n int, cards []int, code func(i, j int) int32) *Table {
	t.Helper()
	cols := make([]*Column, len(cards))
	for j, card := range cards {
		labels := make([]string, card)
		for v := range labels {
			labels[v] = "v" + strconv.Itoa(v)
		}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = code(i, j)
		}
		c, err := NewColumnFromCodes("A"+strconv.Itoa(j), codes, labels)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = c
	}
	tab, err := New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestTabulateKernelEdges checks the scan kernel against the map oracle
// where its block and lane boundaries fall: row counts on either side of
// tabulateBlock, sub-ranges that are not multiples of four (as the parallel
// scan issues them, including a range split in two), cell spaces on either
// side of laneCells, card-1 columns, data in one cell, and all-true,
// all-false and alternating masks.
func TestTabulateKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	random := func(cards []int) func(i, j int) int32 {
		return func(i, j int) int32 { return int32(rng.Intn(cards[j])) }
	}
	shapes := []struct {
		name  string
		cards []int
		code  func(cards []int) func(i, j int) int32
	}{
		{"card1", []int{1}, random},
		{"card1-mixed", []int{1, 3, 1}, random},
		{"two", []int{2, 2}, random},
		{"lanes-1", []int{3, 5, 17}, random},
		{"lanes", []int{16, 16}, random},
		{"lanes+1", []int{257}, random},
		{"one-cell", []int{4, 6}, func(cards []int) func(i, j int) int32 {
			return func(i, j int) int32 { return int32(cards[j] - 1) }
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int{1, 3, tabulateBlock - 1, tabulateBlock + 1, 2*tabulateBlock + 809} {
			tab := codedTable(t, n, sh.cards, sh.code(sh.cards))
			names := tab.Columns()
			cols := make([]*Column, len(names))
			strides := make([]int32, len(names))
			size := 1
			for j, name := range names {
				cols[j], _ = tab.Column(name)
				strides[j] = int32(size)
				size *= sh.cards[j]
			}
			alternating := make([]bool, n)
			for i := range alternating {
				alternating[i] = i%2 == 0
			}
			masks := map[string][]bool{
				"none":        nil,
				"all-true":    slices.Repeat([]bool{true}, n),
				"all-false":   make([]bool, n),
				"alternating": alternating,
			}
			ranges := [][2]int{{0, n}, {1, n}, {0, n - 1}, {n / 3, n - n/5}}
			if n > tabulateBlock {
				ranges = append(ranges, [2]int{3, tabulateBlock + 1}, [2]int{tabulateBlock - 5, n - 2})
			}
			for maskName, mask := range masks {
				dc := tab.denseTabulate(cols, names, sh.cards, mask)
				want, err := mapCountsRange(tab, mask, 0, n, names...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dc.Map(), want) || dc.Total != mapTotal(want) {
					t.Fatalf("%s, %d rows, mask %s: dense %v (total %d), map %v", sh.name, n, maskName, dc.Map(), dc.Total, want)
				}
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					want, err := mapCountsRange(tab, mask, lo, hi, names...)
					if err != nil {
						t.Fatal(err)
					}
					whole := &DenseCounts{Attrs: names, Cards: sh.cards, Cells: make([]int, size)}
					tabulateRange(cols, strides, mask, lo, hi, whole.Cells)
					split := &DenseCounts{Attrs: names, Cards: sh.cards, Cells: make([]int, size)}
					mid := lo + (hi-lo)*2/3
					tabulateRange(cols, strides, mask, lo, mid, split.Cells)
					tabulateRange(cols, strides, mask, mid, hi, split.Cells)
					if !reflect.DeepEqual(whole.Map(), want) || !slices.Equal(split.Cells, whole.Cells) {
						t.Fatalf("%s, %d rows, mask %s, rows [%d, %d): range %v, split at %d %v, map %v",
							sh.name, n, maskName, lo, hi, whole.Map(), mid, split.Map(), want)
					}
				}
			}
		}
	}
}

// mapTotal sums an oracle's counts.
func mapTotal(m map[GroupKey]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// TestDenseCountsAllocs pins the heap allocations of a small view's
// tabulation: the scan's index buffer and counter lanes live on the stack,
// so only the view itself and its bookkeeping reach the heap.
func TestDenseCountsAllocs(t *testing.T) {
	tab := randomDenseTable(t, 3000, []int{2, 10}, 9)
	names := tab.Columns()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tab.Tabulate(nil, 0, names...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("Tabulate on a 20-cell view: %v allocations per call, want at most 7", allocs)
	}
}

// TestSelectAllocs pins the heap allocations of Select on a table whose
// restricted columns keep hundreds of labels: the row list, each column's
// codes and each compacted dictionary are allocated once at their final
// length, so the count does not grow with the labels kept.
func TestSelectAllocs(t *testing.T) {
	tab := randomDenseTable(t, 4000, []int{2, 300, 500}, 5)
	where := Eq{Attr: "A0", Value: "v1"}
	sel, err := tab.Select(where)
	if err != nil {
		t.Fatal(err)
	}
	if card := sel.MustColumn("A2").Card(); card < 400 {
		t.Fatalf("restricted A2 keeps %d labels, want hundreds", card)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tab.Select(where); err != nil {
			t.Fatal(err)
		}
	})
	// The match mask, the row list, the column slice, four per column
	// (header, codes, remap, labels), the table and its name index. Growing
	// the dictionaries by append instead costs 49.
	if allocs > 19 {
		t.Errorf("Select keeping ~800 labels: %v allocations per call, want at most 19", allocs)
	}
}

// TestDenseBudgetFallback: Tabulate returns the sparse form above the
// row-tightened cell budget, with identical counts; and DenseSize's
// arithmetic holds, overflow guard included.
func TestDenseBudgetFallback(t *testing.T) {
	tab := randomDenseTable(t, 200, []int{300, 300}, 31)
	names := tab.Columns()
	for _, pred := range []Predicate{nil, Not{Pred: Eq{Attr: names[0], Value: "v0"}}} {
		dc, err := tab.Tabulate(pred, 0, names...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mapCounts(tab, pred, names...)
		if err != nil {
			t.Fatal(err)
		}
		if dc.Cells != nil || !reflect.DeepEqual(dc.Map(), want) || dc.Total != mapTotal(want) {
			t.Errorf("pred %v: dense %v, total %d, map %v; want the sparse form of %v", pred, dc.Cells != nil, dc.Total, dc.Map(), want)
		}
	}
	// DenseFits is the decision Tabulate makes: dense on one column, sparse
	// on both, an error on an unknown attribute.
	if ok, err := tab.DenseFits(0, names[0]); !ok || err != nil {
		t.Errorf("DenseFits(%s) = %v, %v; want true", names[0], ok, err)
	}
	if ok, err := tab.DenseFits(0, names...); ok || err != nil {
		t.Errorf("DenseFits(%v) = %v, %v; want false", names, ok, err)
	}
	if _, err := tab.DenseFits(0, "nope"); err == nil {
		t.Error("DenseFits accepted an unknown attribute")
	}
	if _, ok := DenseSize([]int{1 << 12, 1 << 12}, 1<<22); ok {
		t.Error("2^24 cells fit a 2^22 budget")
	}
	if size, ok := DenseSize([]int{64, 64}, 1<<22); !ok || size != 4096 {
		t.Errorf("DenseSize = (%d,%v)", size, ok)
	}
	if _, ok := DenseSize([]int{1 << 31, 1 << 31, 1 << 31}, 1<<62); ok {
		t.Error("overflowing product accepted")
	}
	if _, ok := DenseSize([]int{0}, 0); ok {
		t.Error("zero cardinality accepted")
	}
}

// TestNewCellCounts: cells given out of order, repeated or empty come out
// as the sparse form of their per-cell sums, in cell order; bad codes,
// negative counts, overflowing sums and a ragged code list are errors.
func TestNewCellCounts(t *testing.T) {
	attrs, cards := []string{"a", "b"}, []int{2, 3}
	sc, err := NewCellCounts(attrs, cards,
		[]int32{1, 2, 0, 1, 1, 2, 0, 0, 1, 0},
		[]int{4, 2, 1, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	var got [][3]int
	sc.EachCell(func(codes []int32, c int) { got = append(got, [3]int{int(codes[0]), int(codes[1]), c}) })
	want := [][3]int{{0, 0, 3}, {0, 1, 2}, {1, 2, 5}}
	if !reflect.DeepEqual(got, want) || sc.Total != 10 || sc.Cells != nil {
		t.Errorf("cells %v total %d dense %v, want %v total 10 sparse", got, sc.Total, sc.Cells != nil, want)
	}
	for name, tc := range map[string]struct {
		codes  []int32
		counts []int
	}{
		"code outside dictionary": {[]int32{0, 3}, []int{1}},
		"negative code":           {[]int32{-1, 0}, []int{1}},
		"negative count":          {[]int32{0, 0}, []int{-1}},
		"overflowing sum":         {[]int32{0, 0, 1, 1}, []int{math.MaxInt, 1}},
		"ragged codes":            {[]int32{0, 0, 1}, []int{1, 1}},
	} {
		if _, err := NewCellCounts(attrs, cards, tc.codes, tc.counts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCountsBeyondInt32: a cell count above 2^31 survives every accessor
// exactly, on a sparse view with a wide attribute and on a dense view whose
// Total exceeds MaxInt32, which Occupied lists.
func TestCountsBeyondInt32(t *testing.T) {
	const big = 1<<31 + 5
	sp, err := NewCellCounts([]string{"a", "b"}, []int{3, 300},
		[]int32{2, 299, 0, 299, 1, 0}, []int{big, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.CellCounts(); !reflect.DeepEqual(got, []int{3, 7, big}) || sp.Total != big+10 {
		t.Errorf("sparse CellCounts %v total %d", got, sp.Total)
	}
	if got := sp.Marginal(0); !reflect.DeepEqual(got, []int{7, 3, big}) {
		t.Errorf("sparse Marginal(0) = %v", got)
	}
	if got := sp.Marginal(1); got[0] != 3 || got[299] != big+7 {
		t.Errorf("sparse Marginal(1) = %v at 0 and %v at 299", got[0], got[299])
	}
	if p, err := sp.Project([]int{1}); err != nil || !reflect.DeepEqual(p.CellCounts(), []int{3, big + 7}) || p.Total != big+10 {
		t.Errorf("sparse Project(1): %v", err)
	}
	swapped, err := sp.Project([]int{1, 0})
	if err != nil || !reflect.DeepEqual(swapped.CellCounts(), []int{7, 3, big}) {
		t.Fatalf("sparse Project(1, 0): %v", err)
	}
	wantGroups := []CellGroup{
		{Key: EncodeKey(0), Total: 7, Codes: []int32{299}, Counts: []int{7}},
		{Key: EncodeKey(1), Total: 3, Codes: []int32{0}, Counts: []int{3}},
		{Key: EncodeKey(2), Total: big, Codes: []int32{299}, Counts: []int{big}},
	}
	if got := sp.GroupBy(1); !reflect.DeepEqual(got, wantGroups) {
		t.Errorf("sparse GroupBy(1) = %v", got)
	}
	wantSwapped := []CellGroup{
		{Key: EncodeKey(0), Total: 3, Codes: []int32{1}, Counts: []int{3}},
		{Key: EncodeKey(299), Total: big + 7, Codes: []int32{0, 2}, Counts: []int{7, big}},
	}
	if got := swapped.GroupBy(1); !reflect.DeepEqual(got, wantSwapped) {
		t.Errorf("sparse GroupBy(1) over the wide lead = %v", got)
	}

	d, err := NewDenseCounts([]string{"a", "b"}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	d.Cells[0], d.Cells[1+3*3], d.Cells[2+3*3] = 2, 4, big
	d.Total = big + 6
	if got := d.CellCounts(); !reflect.DeepEqual(got, d.Cells) {
		t.Errorf("dense CellCounts %v", got)
	}
	if got := d.Marginal(0); !reflect.DeepEqual(got, []int{2, 4, big}) {
		t.Errorf("dense Marginal(0) = %v", got)
	}
	if got := d.Marginal(1); !reflect.DeepEqual(got, []int{2, 0, 0, big + 4}) {
		t.Errorf("dense Marginal(1) = %v", got)
	}
	o := d.Occupied()
	if o == nil || o.Len() != 3 {
		t.Fatalf("dense Occupied = %v", o)
	}
	for _, tc := range []struct{ keep, cells []int }{
		{[]int{1}, []int{2, 0, 0, big + 4}},
		{[]int{1, 0}, []int{2, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, big}},
	} {
		p, err := d.Project(tc.keep)
		if err != nil || !reflect.DeepEqual(p.Cells, tc.cells) || p.Total != big+6 {
			t.Errorf("dense Project(%v): %v, %v", tc.keep, p, err)
		}
		q, err := o.Project(tc.keep)
		if err != nil || !reflect.DeepEqual(q, p) {
			t.Errorf("list Project(%v): %v, %v", tc.keep, q, err)
		}
	}
	wantGroups = []CellGroup{
		{Key: EncodeKey(0), Total: 2, Codes: []int32{0}, Counts: []int{2}},
		{Key: EncodeKey(1), Total: 4, Codes: []int32{3}, Counts: []int{4}},
		{Key: EncodeKey(2), Total: big, Codes: []int32{3}, Counts: []int{big}},
	}
	if got := d.GroupBy(1); !reflect.DeepEqual(got, wantGroups) {
		t.Errorf("dense GroupBy(1) = %v", got)
	}
}

func BenchmarkDenseVsMapCounts(b *testing.B) {
	tab := randomDenseTable(b, 100000, []int{8, 6, 4, 2}, 3)
	names := tab.Columns()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tab.Tabulate(nil, 0, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mapCounts(tab, nil, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTabulate times the dense kernel on views shaped like the engine's
// restricted tabulations: 3,000 rows over one to four attributes, most of
// them with at most 64 cells, plus one predicated scan.
func BenchmarkTabulate(b *testing.B) {
	for _, cards := range [][]int{{2}, {2, 2}, {7, 7}, {2, 10}, {2, 2, 6, 2}, {3, 4, 5, 6}, {8, 8, 8}} {
		tab := randomDenseTable(b, 3000, cards, 5)
		names := tab.Columns()
		b.Run(cardsName(cards), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tab.Tabulate(nil, 0, names...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	tab := randomDenseTable(b, 3000, []int{7, 7}, 5)
	names := tab.Columns()
	pred := Not{Pred: Eq{Attr: names[0], Value: "v0"}}
	b.Run("7x7/where", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := tab.Tabulate(pred, 0, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	// GroupBy partitions rows with a stable sort of row indices.
	for _, cards := range [][]int{{2}, {7, 7}, {3, 4, 5, 6}, {300}} {
		tab := randomDenseTable(b, 3000, cards, 5)
		names := tab.Columns()
		b.Run("groupby/"+cardsName(cards), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tab.GroupBy(names...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cardsName names a cardinality list as "2x2x6".
func cardsName(cards []int) string {
	s := make([]string, len(cards))
	for i, c := range cards {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, "x")
}
