package countcache

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/source/mem"
)

// odometerProject is the dense Project as it was before covers walked
// their occupied cells: one odometer pass over every cell, zero or not,
// keeping the output index in step. It is the oracle every derivation must
// equal.
func odometerProject(d *dataset.DenseCounts, keep []int) *dataset.DenseCounts {
	attrs := make([]string, len(keep))
	cards := make([]int, len(keep))
	outStride := make([]int, len(d.Cards))
	size := 1
	for i, p := range keep {
		attrs[i], cards[i] = d.Attrs[p], d.Cards[p]
		outStride[p] = size
		size *= d.Cards[p]
	}
	out := &dataset.DenseCounts{Attrs: attrs, Cards: cards, Cells: make([]int, size), Total: d.Total}
	odo := make([]int32, len(d.Cards))
	outIdx := 0
	for _, c := range d.Cells {
		out.Cells[outIdx] += c
		for i := range odo {
			odo[i]++
			outIdx += outStride[i]
			if int(odo[i]) < d.Cards[i] {
				break
			}
			outIdx -= outStride[i] * d.Cards[i]
			odo[i] = 0
		}
	}
	return out
}

// occupiedTable builds a table over attributes A, B, … with the given
// cardinalities (every label in each dictionary, used or not) in which
// about occupancy of the cells hold rows: each occupied cell 1–3 rows, and
// at least cells/64 rows in all, so the mem backend tabulates it densely.
func occupiedTable(t *testing.T, rng *rand.Rand, cards []int, occupancy float64) *dataset.Table {
	t.Helper()
	size := 1
	for _, c := range cards {
		size *= c
	}
	var occupied []int
	for cell := 0; cell < size; cell++ {
		if rng.Float64() < occupancy {
			occupied = append(occupied, cell)
		}
	}
	if len(occupied) == 0 {
		occupied = append(occupied, rng.Intn(size))
	}
	var rows []int
	for _, cell := range occupied {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			rows = append(rows, cell)
		}
	}
	for len(rows) < size/64+1 {
		rows = append(rows, occupied[rng.Intn(len(occupied))])
	}
	cols := make([]*dataset.Column, len(cards))
	stride := 1
	for j, card := range cards {
		labels := make([]string, card)
		for v := range labels {
			labels[v] = "v" + strconv.Itoa(v)
		}
		codes := make([]int32, len(rows))
		for i, cell := range rows {
			codes[i] = int32(cell / stride % card)
		}
		col, err := dataset.NewColumnFromCodes(string(rune('A'+j)), codes, labels)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = col
		stride *= card
	}
	tab, err := dataset.New(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// primedEntry primes c with every attribute of tab and returns the stored
// entry, checking that it is dense and that no occupied-cell list was built
// or charged for it yet.
func primedEntry(t *testing.T, c *Relation, tab *dataset.Table) *entry {
	t.Helper()
	all := tab.Columns()
	if err := c.Prime(context.Background(), all, 0); err != nil {
		t.Fatal(err)
	}
	set, _ := setOf(c.names, all)
	c.mu.Lock()
	e := c.views[set]
	c.mu.Unlock()
	if e == nil || e.dc.Cells == nil {
		t.Fatalf("priming %v stored no dense view", all)
	}
	if e.occ.Load() != nil || c.TotalCachedCells() != len(e.dc.Cells) {
		t.Fatalf("primed view of %d cells: list %v, ledger %d; want no list before it is projected",
			len(e.dc.Cells), e.occ.Load() != nil, c.TotalCachedCells())
	}
	return e
}

// TestCoverOccupiedWalk: derivations from a cached cover walk the cover's
// occupied-cell list, and each equals the odometer projection the walk
// replaced. Random dense views — 1–6 attributes, cardinalities 1–300, 1% to
// 100% of cells occupied — are primed, then every subset of their
// attributes is requested in sorted and in shuffled order. The first
// request, {A}, projects the full view once and lists nothing; the second
// derivation from it builds its list; the ledger charges every stored list
// (checkIndex).
func TestCoverOccupiedWalk(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(45))
	for n := 0; n < 24; n++ {
		width := 1 + rng.Intn(6)
		cards := make([]int, 0, width)
		size := 1
		for len(cards) < width {
			c := 1 + rng.Intn(300)
			if len(cards) > 0 && rng.Intn(3) > 0 {
				c = 1 + rng.Intn(8)
			}
			for c > 1 && size*c > 1<<13 {
				c /= 2
			}
			cards = append(cards, c)
			size *= c
		}
		occupancy := []float64{0.01, 0.1, 0.5, 1}[rng.Intn(4)]
		tab := occupiedTable(t, rng, cards, occupancy)
		c := Wrap(mem.New(tab), 0)
		e := primedEntry(t, c, tab)
		all := tab.Columns()
		for m := 1; m < 1<<width; m++ {
			var req []string
			for i, a := range all {
				if m&(1<<i) != 0 {
					req = append(req, a)
				}
			}
			shuffled := append([]string(nil), req...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, order := range [][]string{req, shuffled} {
				got, err := c.DenseCounts(ctx, order, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				keep := make([]int, len(order))
				for i, a := range order {
					keep[i] = int(a[0] - 'A')
				}
				if want := odometerProject(e.dc, keep); got == nil || !sameCounts(got, want) {
					t.Fatalf("cards %v at occupancy %v: %v answered %+v, odometer projection %+v", cards, occupancy, order, got, want)
				}
			}
			if m == 1 && width > 1 && e.occ.Load() != nil {
				t.Fatalf("cards %v: the full view listed its occupied cells after one projection", cards)
			}
		}
		if width > 1 && e.occ.Load() == nil {
			t.Errorf("cards %v: the full view served its subsets without listing its occupied cells", cards)
		}
		checkIndex(t, c)
	}
}

// TestCoverOccupiedWalkRace: 16 goroutines race the first uses of one
// cover, half of them reordering the cover itself and half deriving one
// subset of it. Each half must get identical views, equal to the odometer
// projection, and the cover's list must be charged to the ledger exactly
// once, however many goroutines built one.
func TestCoverOccupiedWalkRace(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(16))
	cards := []int{7, 30, 5, 4, 3, 2}
	tab := occupiedTable(t, rng, cards, 0.1)
	reorder := []string{"F", "B", "D", "A", "E", "C"}
	derive := []string{"A", "B", "D", "E"}
	keeps := [2][]int{{5, 1, 3, 0, 4, 2}, {0, 1, 3, 4}}
	for round := 0; round < 4; round++ {
		c := Wrap(mem.New(tab), 0)
		e := primedEntry(t, c, tab)
		var got [16]*dataset.DenseCounts
		var errs [16]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				attrs := reorder
				if g%2 == 1 {
					attrs = derive
				}
				got[g], errs[g] = c.DenseCounts(ctx, attrs, nil, 0)
			}()
		}
		close(start)
		wg.Wait()
		for g, dc := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if want := odometerProject(e.dc, keeps[g%2]); dc == nil || !sameCounts(dc, want) || !sameCounts(dc, got[g%2]) {
				t.Fatalf("round %d, goroutine %d: view differs from the odometer projection or from goroutine %d", round, g, g%2)
			}
		}
		o := e.occ.Load()
		if o == nil {
			t.Fatalf("round %d: the cover's list was not kept", round)
		}
		set, _ := setOf(c.names, derive)
		c.mu.Lock()
		derived := c.views[set]
		c.mu.Unlock()
		if derived == nil || derived.occ.Load() != nil {
			t.Fatalf("round %d: derived view %v stored with a list, or not stored", round, derive)
		}
		want := len(e.dc.Cells) + (o.Bytes()+7)/8 + len(derived.dc.Cells)
		if total := c.TotalCachedCells(); total != want {
			t.Fatalf("round %d: ledger holds %d cells, want %d: the cover, its list once and the derived view", round, total, want)
		}
		checkIndex(t, c)
	}
}
