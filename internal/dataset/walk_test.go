package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// sortedKeyGroupBy is GroupBy on the dense form as it was before groups
// were numbered by lead cell: an odometer pass numbers the groups in order
// of first sight and encodes each one's key, a second pass fills them, and
// the groups are sorted by key. It is the oracle the dense GroupBy must
// match.
func sortedKeyGroupBy(d *DenseCounts, k int) []CellGroup {
	var keys []string
	var sizes []int
	lead := 1
	for _, card := range d.Cards[:k] {
		lead *= card
	}
	slot := make([]int32, lead) // group number + 1; 0 until seen
	groupOf := func(codes []int32) int {
		cell := 0
		for i := k - 1; i >= 0; i-- {
			cell = cell*d.Cards[i] + int(codes[i])
		}
		if slot[cell] == 0 {
			keys = append(keys, string(EncodeKey(codes[:k]...)))
			sizes = append(sizes, 0)
			slot[cell] = int32(len(keys))
		}
		return int(slot[cell]) - 1
	}
	cells := 0
	d.EachCell(func(codes []int32, _ int) {
		sizes[groupOf(codes)]++
		cells++
	})
	rest := len(d.Cards) - k
	counts := make([]int, cells)
	codes := make([]int32, rest*cells)
	groups := make([]CellGroup, len(keys))
	off := 0
	for gi, n := range sizes {
		groups[gi] = CellGroup{
			Key:    GroupKey(keys[gi]),
			Counts: counts[off:off:(off + n)],
			Codes:  codes[rest*off : rest*off : rest*(off+n)],
		}
		off += n
	}
	d.EachCell(func(cellCodes []int32, c int) {
		g := &groups[groupOf(cellCodes)]
		g.Total += c
		g.Counts = append(g.Counts, c)
		g.Codes = append(g.Codes, cellCodes[k:]...)
	})
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	return groups
}

// randomView fills a dense view over cards with occupancy in (0, 1]: each
// cell is occupied with that probability and holds 1–5 rows.
func randomView(t testing.TB, rng *rand.Rand, cards []int, occupancy float64) *DenseCounts {
	t.Helper()
	attrs := make([]string, len(cards))
	for i := range attrs {
		attrs[i] = string(rune('A' + i))
	}
	d, err := NewDenseCounts(attrs, cards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Cells {
		if rng.Float64() < occupancy {
			d.Cells[i] = 1 + rng.Intn(5)
			d.Total += d.Cells[i]
		}
	}
	return d
}

// TestDenseGroupByMatchesSortedKeys: the dense GroupBy, which orders
// groups by walking the lead space while every lead code fits a byte and
// sorts keys otherwise, equals the sort-by-encoded-key oracle for every
// lead width. Lead cardinalities range over 1–300, so both sides of the
// 256-code cutover run, at every occupancy from near-empty to full.
func TestDenseGroupByMatchesSortedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var cases [][]int
	for _, lead := range []int{1, 2, 255, 256, 257, 300} {
		cases = append(cases, []int{lead}, []int{lead, 3}, []int{2, lead, 2})
	}
	for n := 0; n < 150; n++ {
		cards := []int{1 + rng.Intn(300)}
		for size := cards[0]; len(cards) < 5 && rng.Intn(3) > 0; {
			c := 1 + rng.Intn(12)
			if size *= c; size > 1<<14 {
				break
			}
			cards = append(cards, c)
		}
		rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
		cases = append(cases, cards)
	}
	for _, cards := range cases {
		occupancy := []float64{0.01, 0.1, 0.5, 1}[rng.Intn(4)]
		d := randomView(t, rng, cards, occupancy)
		for k := 0; k <= len(cards); k++ {
			got, want := d.GroupBy(k), sortedKeyGroupBy(d, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cards %v, occupancy %v: GroupBy(%d) differs from the sorted-key oracle", cards, occupancy, k)
			}
		}
	}
}

// TestGroupByAllocs pins the heap allocations of the dense GroupBy: the
// lead-cell slots, the key bytes and the one string all keys share, the
// group sizes, the two shared cell arrays and the groups, plus, for a wide
// lead, the occupied lead cells, their sort order and the sorted keys —
// none per group or per cell. The sort-by-key oracle makes 69 allocations
// on the narrow view (24 groups) and 1,437 on the wide one (703 groups).
func TestGroupByAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		cards []int
		max   float64
	}{
		{[]int{6, 4, 5, 3}, 7}, // narrow leads: walks the lead space
		{[]int{300, 3, 4}, 10}, // a wide lead: sorts the keys
	} {
		d := randomView(t, rng, tc.cards, 0.3)
		allocs := testing.AllocsPerRun(20, func() { d.GroupBy(2) })
		if allocs > tc.max {
			t.Errorf("GroupBy(2) over %v: %v allocations per call, want at most %v", tc.cards, allocs, tc.max)
		}
	}
}

// TestProjectAllocs pins the heap allocations of a dense Project — the
// view, its attribute and radix lists and its cells; the odometer and the
// strides stay on the stack, and no per-call set checks duplicate
// positions (the odometer Project made 8) — and of ProjectInto a scratch
// view that has grown to size: none.
func TestProjectAllocs(t *testing.T) {
	d := randomView(t, rand.New(rand.NewSource(4)), []int{6, 4, 5, 3}, 0.3)
	keep := []int{3, 0, 1}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Project(keep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Project: %v allocations per call, want at most 4", allocs)
	}
	var dst DenseCounts
	if err := d.ProjectInto(&dst, keep); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := d.ProjectInto(&dst, keep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProjectInto a grown scratch view: %v allocations per call, want 0", allocs)
	}
}

// TestOccupiedProject: projecting through a view's occupied-cell list
// equals Project, for narrow (byte) and wide (int32) codes, every
// occupancy and projections that reorder, drop or keep every attribute.
func TestOccupiedProject(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keeps := [][]int{{}, {0}, {2, 0}, {1, 2}, {0, 1, 2}, {2, 1, 0}}
	for _, cards := range [][]int{{2, 3, 4}, {300, 2, 3}, {1, 1, 1}, {256, 1, 5}} {
		for _, occupancy := range []float64{0.01, 0.2, 1} {
			d := randomView(t, rng, cards, occupancy)
			o := d.Occupied()
			if o.Len() != d.NonZero() {
				t.Fatalf("%v: list holds %d cells, view %d occupied", cards, o.Len(), d.NonZero())
			}
			for _, keep := range keeps {
				got, err := o.Project(keep)
				if err != nil {
					t.Fatal(err)
				}
				want, err := d.Project(keep)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v at occupancy %v: list projection onto %v differs from Project", cards, occupancy, keep)
				}
			}
			if _, err := o.Project([]int{1, 1}); err == nil {
				t.Error("duplicate projection position accepted")
			}
		}
	}
	if sp, _ := NewCellCounts([]string{"a"}, []int{2}, []int32{1}, []int{1}); sp.Occupied() != nil {
		t.Error("the sparse form listed its occupied cells")
	}
}

// TestAddCells: adding a delta view, in either form and over narrower
// dictionaries, into a grown view equals the key-by-key sum of the two
// views' maps; a delta over other attributes or wider dictionaries, and a
// sparse receiver, are refused.
func TestAddCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old := randomView(t, rng, []int{3, 300, 2}, 0.2)
	delta := randomView(t, rng, []int{4, 301, 2}, 0.05)
	sparseDelta, err := NewSparseCounts(delta.Attrs, delta.Cards, delta.Map())
	if err != nil {
		t.Fatal(err)
	}
	want := old.Map()
	for key, n := range delta.Map() {
		want[key] += n
	}
	for _, d := range []*DenseCounts{delta, sparseDelta} {
		got, err := old.Grown(delta.Cards)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.AddCells(d); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Map(), want) {
			t.Errorf("AddCells of the %v-cell delta differs from summing the maps", len(d.CellCounts()))
		}
		if !slices.Equal(got.Attrs, old.Attrs) || !slices.Equal(got.Cards, delta.Cards) ||
			got.Total != old.Total+delta.Total || len(got.Cells) != 4*301*2 {
			t.Errorf("AddCells gave (%v %v %d, %d cells), want (%v %v %d, %d cells)",
				got.Attrs, got.Cards, got.Total, len(got.Cells), old.Attrs, delta.Cards, old.Total+delta.Total, 4*301*2)
		}
	}
	if err := old.AddCells(delta); err == nil {
		t.Error("a delta over wider dictionaries was added")
	}
	other := randomView(t, rng, []int{3, 300}, 0.2)
	if err := old.AddCells(other); err == nil {
		t.Error("a delta over other attributes was added")
	}
	if err := sparseDelta.AddCells(delta); err == nil {
		t.Error("AddCells on the sparse form accepted")
	}
}

// BenchmarkGroupBy times the dense GroupBy of views shaped like the
// rewriting's group tables: a narrow lead (the lead-space walk) and a wide
// one (sorted keys), at 10% occupancy.
func BenchmarkGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, cards := range [][]int{{4, 3, 2, 12, 4}, {300, 3, 4}} {
		d := randomView(b, rng, cards, 0.1)
		b.Run(cardsName(cards), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d.GroupBy(2)
			}
		})
	}
}

// TestOccupiedSlice: slicing a view's occupied-cell list by a predicate
// evaluated with EvalCells equals tabulating the matching rows, for narrow
// and wide codes, predicates over one and two attributes, and projections
// that keep, drop or reorder the predicate's attributes. A matched code
// with no code in the result, and a predicate value absent from its
// dictionary, refuse the slice.
func TestOccupiedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, cards := range [][]int{{3, 4, 2}, {3, 300, 4}} {
		cols := make([]*Column, len(cards))
		for j, card := range cards {
			labels := make([]string, card)
			for v := range labels {
				labels[v] = "v" + strconv.Itoa(v)
			}
			codes := make([]int32, 2000)
			for i := range codes {
				codes[i] = int32(rng.Intn(card))
			}
			cols[j] = mustColumn(t, string(rune('A'+j)), codes, labels)
		}
		tab, err := New(cols...)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tab.Tabulate(nil, 1<<22, "A", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		o := full.Occupied()
		for _, pred := range []Predicate{
			In{Attr: "A", Values: []string{"v0", "v2"}},
			And{Not{Eq{Attr: "C", Value: "v1"}}, Or{Eq{Attr: "A", Value: "v1"}, In{Attr: "C", Values: []string{"v0"}}}},
		} {
			on, _ := PredicateAttrs(pred)
			onPos := make([]int, len(on))
			labels := make([][]string, len(on))
			for q, a := range on {
				onPos[q] = slices.Index(full.Attrs, a)
				labels[q] = tab.MustColumn(a).Labels()
			}
			match, ok, err := EvalCells(pred, on, labels)
			if err != nil || !ok {
				t.Fatalf("EvalCells(%s) = (%v, %v)", pred.SQL(), ok, err)
			}
			for _, keep := range [][]int{{}, {0}, {1, 2}, {2, 0}, {0, 1, 2}} {
				attrs := make([]string, len(keep))
				recode := make([][]int32, len(keep))
				kc := make([]int, len(keep))
				for q, p := range keep {
					attrs[q], kc[q] = full.Attrs[p], full.Cards[p]
					recode[q] = make([]int32, kc[q])
					for v := range recode[q] {
						recode[q][v] = int32(v)
					}
				}
				got, err := o.Slice(keep, recode, kc, onPos, match)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tab.Tabulate(pred, 1<<22, attrs...)
				if err != nil {
					t.Fatal(err)
				}
				if got == nil || !slices.Equal(got.Attrs, want.Attrs) || !slices.Equal(got.Cards, want.Cards) ||
					!slices.Equal(got.Cells, want.Cells) || got.Total != want.Total {
					t.Fatalf("%v: slice by %s onto %v differs from tabulating the matching rows", cards, pred.SQL(), attrs)
				}
			}
			recode := [][]int32{{-1, -1, -1}}
			if got, err := o.Slice([]int{0}, recode, []int{3}, onPos, match); got != nil || err != nil {
				t.Errorf("slice with unmapped matched codes = (%v, %v), want nil", got, err)
			}
		}
	}
	if _, ok, err := EvalCells(Eq{Attr: "A", Value: "absent"}, []string{"A"}, [][]string{{"v0"}}); ok || err != nil {
		t.Errorf("EvalCells over an absent value = (%v, %v), want not ok", ok, err)
	}
}

func mustColumn(t *testing.T, name string, codes []int32, labels []string) *Column {
	t.Helper()
	c, err := NewColumnFromCodes(name, codes, labels)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
