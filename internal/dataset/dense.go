package dataset

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// DefaultCellBudget bounds the size of a dense count tabulation: when the
// product of the grouped attributes' cardinalities exceeds this many cells,
// the tabulation comes in the sparse form instead. 2^22 cells is 32 MiB
// of int64 counters — large enough for every contingency table the paper's
// workloads produce, small enough to tabulate without memory pressure.
const DefaultCellBudget = 1 << 22

// minDenseCells is the cell space below which dense tabulation always wins
// regardless of row count.
const minDenseCells = 1 << 12

// denseRowFactor caps the cell space relative to the data size: a dense
// view with far more cells than rows is mostly zeros, and the O(cells)
// passes (tabulation tail, Map, marginalization) would dominate the
// O(rows) work the sparse path does. 64 keeps the dense win on every
// contingency-table-shaped workload while bounding the empty-cell overhead
// of one pass to 64 words per row.
const denseRowFactor = 64

// EffectiveBudget tightens a cell budget (≤ 0 meaning DefaultCellBudget)
// by the row count of the data about to be tabulated, so sparse
// high-cardinality data never trades an O(rows) hash count for a larger
// O(cells) scan.
func EffectiveBudget(budget, rows int) int {
	if budget <= 0 {
		budget = DefaultCellBudget
	}
	rowCap := minDenseCells
	if rows > 0 && rows > rowCap/denseRowFactor {
		rowCap = rows * denseRowFactor
		if rowCap/denseRowFactor != rows || rowCap < 0 {
			return budget // overflow: row cap is unbounded
		}
	}
	if rowCap < budget {
		return rowCap
	}
	return budget
}

// parallelMinRows is the row count below which a parallel tabulation is not
// worth the goroutine fan-out.
const parallelMinRows = 1 << 15

// parallelMaxCells bounds the per-worker scratch slab of the parallel scan:
// above this, workers' private copies of the cell array would dominate the
// cost and the scan stays serial.
const parallelMaxCells = 1 << 18

// tabulateBlock is the row-block size of the column-wise tabulation loop; it
// bounds the per-block index buffer so it stays cache-resident.
const tabulateBlock = 1 << 12

// laneCells is the largest cell space an unpredicated scan scatters into
// four interleaved counter lanes (scatterLanes). With few cells, consecutive
// rows hit the same counter, and a single increment per row chains each
// store to the next load; four lanes give four independent chains. It must
// be a power of two: the lane index is masked with laneCells-1, which lets
// the compiler drop the bounds checks.
const laneCells = 1 << 8

// DenseCounts is the flat, dictionary-coded tabulation of group-by counts
// over a fixed attribute list: the sufficient statistic everything in HypDB
// (entropies, χ²/MIT tests, covariate scoring, query rewriting) reduces to,
// stored as an OLAP-cube view rather than a hash map.
//
// Cell layout is mixed-radix with the first attribute fastest:
//
//	cell(c0, c1, …, ck) = c0 + Cards[0]·(c1 + Cards[1]·(c2 + …))
//
// so the stride of attribute j is the product of the cardinalities before
// it. Cells holds one counter per cell of the cross product, including
// combinations that never occur (count zero) — which is what makes
// marginalization a single O(cells) pass with no key decoding.
//
// A tabulation whose cell space exceeds the budget comes in the sparse form
// (NewCellCounts): only the occupied cells, in the same cell order, and no
// Cells array. The engine reads counts only through the accessors that
// serve both forms alike — NonZero, CellCounts, EachCell, Marginal,
// GroupBy, Map and Project — so no consumer branches on the form. Cells
// and the storage-layer operations (AddKey, Grown) are dense-only and fail
// on the sparse form.
type DenseCounts struct {
	// Attrs names the grouped attributes, in tabulation order.
	Attrs []string
	// Cards holds the dictionary cardinality (radix) of each attribute.
	Cards []int
	// Cells is the flat counter array of length ∏ Cards (length 1 when
	// Attrs is empty: the single global count); nil in the sparse form.
	Cells []int
	// Total is the number of tabulated rows (the sum of Cells).
	Total int

	sparse *sparseCells // nil in the dense form
}

// sparseCells holds the occupied cells of a sparse-form view in cell order:
// len(Cards) codes per cell in codes, one count per cell in counts.
type sparseCells struct {
	codes  []int32
	counts []int
}

// DenseSize returns the number of cells of a dense tabulation over the given
// cardinalities, and whether it fits the budget (overflow-safe). A budget
// ≤ 0 means DefaultCellBudget.
func DenseSize(cards []int, budget int) (int, bool) {
	if budget <= 0 {
		budget = DefaultCellBudget
	}
	size := 1
	for _, c := range cards {
		if c <= 0 {
			return 0, false
		}
		if size > budget/c {
			return 0, false
		}
		size *= c
	}
	return size, size <= budget
}

// NewDenseCounts allocates an all-zero dense view over the given attributes
// and cardinalities.
func NewDenseCounts(attrs []string, cards []int) (*DenseCounts, error) {
	if len(attrs) != len(cards) {
		return nil, fmt.Errorf("dataset: %d attributes but %d cardinalities", len(attrs), len(cards))
	}
	size := 1
	for _, c := range cards {
		if c <= 0 {
			return nil, fmt.Errorf("dataset: non-positive cardinality %d", c)
		}
		if size > (1<<40)/c {
			return nil, fmt.Errorf("dataset: dense view over %v overflows", cards)
		}
		size *= c
	}
	return &DenseCounts{
		Attrs: append([]string(nil), attrs...),
		Cards: append([]int(nil), cards...),
		Cells: make([]int, size),
	}, nil
}

// AddKey accumulates a sparse (GroupKey-coded) count into the dense view.
// The key must carry one code per attribute, each within its dictionary.
func (d *DenseCounts) AddKey(k GroupKey, count int) error {
	if d.sparse != nil {
		return errSparse("AddKey")
	}
	if k.Fields() != len(d.Cards) {
		return fmt.Errorf("dataset: key with %d fields into dense view over %d attributes", k.Fields(), len(d.Cards))
	}
	idx := 0
	stride := 1
	for i, card := range d.Cards {
		code := int(k.Field(i))
		if code < 0 || code >= card {
			return fmt.Errorf("dataset: code %d of %q outside dictionary of size %d", code, d.Attrs[i], card)
		}
		idx += stride * code
		stride *= card
	}
	d.Cells[idx] += count
	d.Total += count
	return nil
}

// NewSparseCounts builds the sparse form of a view over attrs from a coded
// count map. It is NewCellCounts over the map's entries.
func NewSparseCounts(attrs []string, cards []int, counts map[GroupKey]int) (*DenseCounts, error) {
	k := len(cards)
	codes := make([]int32, 0, k*len(counts))
	cells := make([]int, 0, len(counts))
	for key, c := range counts {
		if key.Fields() != k {
			return nil, fmt.Errorf("dataset: key with %d fields into view over %d attributes", key.Fields(), k)
		}
		for i := 0; i < k; i++ {
			codes = append(codes, key.Field(i))
		}
		cells = append(cells, c)
	}
	return NewCellCounts(attrs, cards, codes, cells)
}

// NewCellCounts builds the sparse form of a view over attrs from cells in
// any order: len(cards) codes per cell in codes, one count per cell in
// counts. It sums duplicate cells, drops zeros and stores the rest in the
// dense layout's cell order (first attribute fastest), so every accessor
// answers as the dense form would. A code outside its dictionary, a
// negative count or an int overflow is an error.
func NewCellCounts(attrs []string, cards []int, codes []int32, counts []int) (*DenseCounts, error) {
	if len(attrs) != len(cards) {
		return nil, fmt.Errorf("dataset: %d attributes but %d cardinalities", len(attrs), len(cards))
	}
	k := len(cards)
	if len(codes) != k*len(counts) {
		return nil, fmt.Errorf("dataset: %d codes for %d cells over %d attributes", len(codes), len(counts), k)
	}
	d := &DenseCounts{Attrs: append([]string(nil), attrs...), Cards: append([]int(nil), cards...)}
	for j, c := range counts {
		cell := codes[j*k : (j+1)*k]
		for i, card := range cards {
			if code := cell[i]; code < 0 || int(code) >= card {
				return nil, fmt.Errorf("dataset: code %d of %q outside dictionary of size %d", code, attrs[i], card)
			}
		}
		if c < 0 {
			return nil, fmt.Errorf("dataset: cell %v has negative count %d", cell, c)
		}
		if d.Total+c < d.Total {
			return nil, fmt.Errorf("dataset: counts overflow at cell %v", cell)
		}
		d.Total += c
	}
	// Projecting onto every attribute sorts the cells into cell order, sums
	// duplicates and drops zeros, reading the caller's slices only.
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	d.sparse = (&sparseCells{codes: codes, counts: counts}).project(k, all)
	return d, nil
}

// errSparse reports a dense-only operation called on the sparse form.
func errSparse(op string) error {
	return fmt.Errorf("dataset: %s needs the dense form of a count view", op)
}

// EachCell calls fn with the codes and count of every occupied cell, in
// cell order (first attribute fastest), for both forms alike. fn must not
// retain codes.
func (d *DenseCounts) EachCell(fn func(codes []int32, c int)) {
	k := len(d.Cards)
	if sp := d.sparse; sp != nil {
		for j, c := range sp.counts {
			fn(sp.codes[j*k:(j+1)*k], c)
		}
		return
	}
	odo := make([]int32, k)
	for _, c := range d.Cells {
		if c > 0 {
			fn(odo, c)
		}
		increment(odo, d.Cards)
	}
}

// NonZero returns the number of occupied cells — the distinct count
// |Π_attrs(D)| of the paper.
func (d *DenseCounts) NonZero() int {
	if d.sparse != nil {
		return len(d.sparse.counts)
	}
	n := 0
	for _, c := range d.Cells {
		if c > 0 {
			n++
		}
	}
	return n
}

// CellCounts returns the view's counts: every cell of the dense form, zeros
// included, or the occupied cells of the sparse form. The non-zero multiset
// is the same either way, and it is all an entropy estimate depends on
// (stats.EntropyCountsStable sums it in ascending order). Callers must not
// mutate the slice.
func (d *DenseCounts) CellCounts() []int {
	if d.sparse != nil {
		return d.sparse.counts
	}
	return d.Cells
}

// Marginal returns the counts of attribute i indexed by its codes, summed
// over every other attribute.
func (d *DenseCounts) Marginal(i int) []int {
	out := make([]int, d.Cards[i])
	d.EachCell(func(codes []int32, c int) { out[codes[i]] += c })
	return out
}

// A CellGroup is one occupied combination of a view's leading attributes,
// with the occupied cells under it.
type CellGroup struct {
	// Key holds the leading attributes' codes, in EncodeKey layout.
	Key GroupKey
	// Total is the group's row count: the sum of Counts.
	Total int
	// Codes holds the trailing attributes' codes of each cell (one run of
	// len(Attrs)−k codes per cell) and Counts the cells' counts, both in
	// cell order.
	Codes  []int32
	Counts []int
}

// GroupBy partitions the occupied cells by the codes of the first k
// attributes. Groups come in ascending encoded-key order, the order of a
// sorted group-by, and both forms yield identical groups. The caller owns
// the result.
func (d *DenseCounts) GroupBy(k int) []CellGroup {
	// groupOf numbers the groups in order of first sight, indexing them by
	// the leading attributes' cell index in the dense form and by their
	// encoded key in the sparse form.
	var keys []string
	var sizes []int
	var groupOf func(codes []int32) int
	if d.sparse != nil {
		index := make(map[string]int)
		var buf []byte
		groupOf = func(codes []int32) int {
			buf = appendCodes(buf[:0], codes[:k])
			gi, ok := index[string(buf)]
			if !ok {
				gi = len(keys)
				keys = append(keys, string(buf))
				index[keys[gi]] = gi
				sizes = append(sizes, 0)
			}
			return gi
		}
	} else {
		lead := 1
		for _, card := range d.Cards[:k] {
			lead *= card
		}
		slot := make([]int32, lead) // group number + 1; 0 until seen
		groupOf = func(codes []int32) int {
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
	}
	// Pass 1 numbers and sizes the groups; pass 2 fills them from two
	// shared arrays.
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

// Map renders the occupied cells as the sparse map form used by the
// source.Relation contract. Keys are encoded exactly as EncodeKey over the
// per-attribute codes, so dense- and map-produced keys are interchangeable.
func (d *DenseCounts) Map() map[GroupKey]int {
	out := make(map[GroupKey]int, d.NonZero())
	var buf []byte
	d.EachCell(func(codes []int32, c int) {
		buf = appendCodes(buf[:0], codes)
		out[GroupKey(buf)] += c
	})
	return out
}

// increment advances a mixed-radix odometer (first digit fastest).
func increment(odo []int32, cards []int) {
	for i := range odo {
		odo[i]++
		if int(odo[i]) < cards[i] {
			return
		}
		odo[i] = 0
	}
}

// Project marginalizes the view onto the attributes at positions keep, in
// the given order: cells of the result sum every input cell agreeing on the
// kept codes. On the dense form this is the O(cells) marginalization kernel
// that replaces per-cell key re-encoding: one pass, no allocations beyond
// the output. The sparse form projects into the sparse form.
func (d *DenseCounts) Project(keep []int) (*DenseCounts, error) {
	attrs := make([]string, len(keep))
	cards := make([]int, len(keep))
	seen := make(map[int]bool, len(keep))
	for i, p := range keep {
		if p < 0 || p >= len(d.Cards) {
			return nil, fmt.Errorf("dataset: projection position %d outside view over %d attributes", p, len(d.Cards))
		}
		if seen[p] {
			return nil, fmt.Errorf("dataset: duplicate projection position %d", p)
		}
		seen[p] = true
		attrs[i] = d.Attrs[p]
		cards[i] = d.Cards[p]
	}
	if d.sparse != nil {
		return &DenseCounts{Attrs: attrs, Cards: cards, Total: d.Total, sparse: d.sparse.project(len(d.Cards), keep)}, nil
	}
	out, err := NewDenseCounts(attrs, cards)
	if err != nil {
		return nil, err
	}
	out.Total = d.Total

	// outStride[p] is the contribution of source attribute p to the output
	// cell index (zero for summed-out attributes).
	outStride := make([]int, len(d.Cards))
	stride := 1
	for i, p := range keep {
		outStride[p] = stride
		stride *= cards[i]
	}
	odo := make([]int32, len(d.Cards))
	outIdx := 0
	for _, c := range d.Cells {
		if c != 0 {
			out.Cells[outIdx] += c
		}
		// Advance the odometer and incrementally maintain the output index.
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
	return out, nil
}

// project folds cells of k codes each onto the positions keep: the kept
// codes are sorted into the result's cell order (the last kept attribute
// most significant), equal runs summed and zero counts dropped.
func (sp *sparseCells) project(k int, keep []int) *sparseCells {
	w, m := len(keep), len(sp.counts)
	codes := sp.codes // keeping every position in order needs no gather
	if w != k || !slices.IsSorted(keep) {
		codes = make([]int32, 0, w*m)
		for j := 0; j < m; j++ {
			cell := sp.codes[j*k : (j+1)*k]
			for _, p := range keep {
				codes = append(codes, cell[p])
			}
		}
	}
	order := make([]int32, m)
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := codes[int(a)*w:int(a+1)*w], codes[int(b)*w:int(b+1)*w]
		for i := w - 1; i >= 0; i-- {
			if ca[i] != cb[i] {
				return cmp.Compare(ca[i], cb[i])
			}
		}
		return 0
	})
	out := &sparseCells{codes: make([]int32, 0, w*m), counts: make([]int, 0, m)}
	for _, j := range order {
		if sp.counts[j] == 0 {
			continue
		}
		cell := codes[int(j)*w : int(j+1)*w]
		if n := len(out.counts); n > 0 && slices.Equal(out.codes[(n-1)*w:], cell) {
			out.counts[n-1] += sp.counts[j]
			continue
		}
		out.codes = append(out.codes, cell...)
		out.counts = append(out.counts, sp.counts[j])
	}
	return out
}

// Grown returns a copy of the view re-strided to the given (element-wise ≥)
// cardinalities, preserving every count at its original codes. It is the
// cell-layout half of delta application under a growing dictionary: labels
// are only ever appended to a dictionary, so an old view's cell (c0,…,ck)
// keeps exactly those codes in the enlarged space — only the strides move.
func (d *DenseCounts) Grown(cards []int) (*DenseCounts, error) {
	if d.sparse != nil {
		return nil, errSparse("Grown")
	}
	if len(cards) != len(d.Cards) {
		return nil, fmt.Errorf("dataset: grow to %d cardinalities, view has %d", len(cards), len(d.Cards))
	}
	for i, c := range cards {
		if c < d.Cards[i] {
			return nil, fmt.Errorf("dataset: attribute %s cannot shrink from %d to %d", d.Attrs[i], d.Cards[i], c)
		}
	}
	out, err := NewDenseCounts(d.Attrs, cards)
	if err != nil {
		return nil, err
	}
	out.Total = d.Total

	outStride := make([]int, len(d.Cards))
	stride := 1
	for i, c := range cards {
		outStride[i] = stride
		stride *= c
	}
	odo := make([]int32, len(d.Cards))
	outIdx := 0
	for _, c := range d.Cells {
		if c != 0 {
			out.Cells[outIdx] = c
		}
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
	return out, nil
}

// Tabulate counts the rows matching pred (all rows when pred is nil) by the
// composite value of attrs. Codes are in t's own dictionaries — no
// compaction — so views under different predicates over one table stay
// comparable. The view is dense when DenseFits(budget, attrs...) holds;
// otherwise it is the sparse form, built from the matching rows' codes in
// memory proportional to the matching rows times len(attrs).
func (t *Table) Tabulate(pred Predicate, budget int, attrs ...string) (*DenseCounts, error) {
	cols := make([]*Column, len(attrs))
	cards := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.Column(a)
		if err != nil {
			return nil, err
		}
		cols[i], cards[i] = c, c.Card()
	}
	var match []bool
	if pred != nil {
		var err error
		if match, err = pred.Eval(t); err != nil {
			return nil, err
		}
	}
	if t.denseFits(cards, budget) {
		return t.denseTabulate(cols, attrs, cards, match), nil
	}
	var codes []int32
	for i := 0; i < t.numRows; i++ {
		if match == nil || match[i] {
			for _, c := range cols {
				codes = append(codes, c.codes[i])
			}
		}
	}
	// attrs is not empty here: the one cell of an empty view always fits.
	counts := make([]int, len(codes)/len(cols))
	for i := range counts {
		counts[i] = 1
	}
	return NewCellCounts(attrs, cards, codes, counts)
}

// DenseFits reports whether Tabulate over attrs with this budget returns the
// dense form: the cell space fits EffectiveBudget(budget, rows). It is the
// cheap check a caller that declines over-budget views makes first.
func (t *Table) DenseFits(budget int, attrs ...string) (bool, error) {
	cards := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.Column(a)
		if err != nil {
			return false, err
		}
		cards[i] = c.Card()
	}
	return t.denseFits(cards, budget), nil
}

// denseFits is the one dense-or-sparse decision for views of t.
func (t *Table) denseFits(cards []int, budget int) bool {
	// The kernel's strides are int32.
	size, ok := DenseSize(cards, EffectiveBudget(budget, t.numRows))
	return ok && size <= math.MaxInt32
}

// denseTabulate is the mixed-radix count kernel: a chunked scan over the
// code vectors accumulating directly into the flat cell array, fanned out
// over GOMAXPROCS workers (each with a private slab, merged at the end) when
// the table is large and the cell space small enough. cards are the
// columns' cardinalities, whose product DenseSize has bounded.
func (t *Table) denseTabulate(cols []*Column, attrs []string, cards []int, match []bool) *DenseCounts {
	size := 1
	for _, card := range cards {
		size *= card
	}
	dc := &DenseCounts{
		Attrs: append([]string(nil), attrs...),
		Cards: cards,
		Cells: make([]int, size),
	}
	strides := make([]int32, len(cols))
	s := int32(1)
	for i, card := range cards {
		strides[i] = s
		s *= int32(card)
	}

	rows := t.numRows
	workers := runtime.GOMAXPROCS(0)
	if rows >= parallelMinRows && size <= parallelMaxCells && workers > 1 {
		if workers > 8 {
			workers = 8
		}
		chunk := (rows + workers - 1) / workers
		slabs := make([][]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				slab := make([]int, size)
				tabulateRange(cols, strides, match, lo, hi, slab)
				slabs[w] = slab
			}(w, lo, hi)
		}
		wg.Wait()
		for _, slab := range slabs {
			if slab == nil {
				continue
			}
			for i, v := range slab {
				dc.Cells[i] += v
			}
		}
	} else {
		tabulateRange(cols, strides, match, 0, rows, dc.Cells)
	}
	for _, v := range dc.Cells {
		dc.Total += v
	}
	return dc
}

// tabulateRange accumulates rows [lo, hi) into cells, block by block: the
// mixed-radix index of each row is built column-wise into a small reusable
// buffer (sequential reads of each code vector), then scattered into the
// cell array — through counter lanes when the scan is unpredicated and the
// cell space is at most laneCells.
func tabulateRange(cols []*Column, strides []int32, match []bool, lo, hi int, cells []int) {
	if len(cols) == 0 {
		n := 0
		if match == nil {
			n = hi - lo
		} else {
			for i := lo; i < hi; i++ {
				if match[i] {
					n++
				}
			}
		}
		if len(cells) > 0 {
			cells[0] += n
		}
		return
	}
	lanes := match == nil && len(cells) <= laneCells
	var idx [tabulateBlock]int32
	for blockLo := lo; blockLo < hi; blockLo += tabulateBlock {
		blockHi := blockLo + tabulateBlock
		if blockHi > hi {
			blockHi = hi
		}
		ix := idx[:copy(idx[:], cols[0].codes[blockLo:blockHi])]
		for j := 1; j < len(cols); j++ {
			stride := strides[j]
			codes := cols[j].codes[blockLo:blockHi][:len(ix)]
			for i, c := range codes {
				ix[i] += stride * c
			}
		}
		switch {
		case lanes:
			scatterLanes(ix, cells)
		case match == nil:
			for _, k := range ix {
				cells[k]++
			}
		default:
			m := match[blockLo:blockHi][:len(ix)]
			for i, k := range ix {
				if m[i] {
					cells[k]++
				}
			}
		}
	}
}

// scatterLanes counts one block of cell indices into cells, which holds at
// most laneCells counters: row i increments lane i mod 4 (the last
// len(ix) mod 4 rows go to lane 0), and the lanes are folded into cells at
// the end. A lane counts at most tabulateBlock/4+3 rows, so int32 cannot
// overflow, and the lanes live on the stack.
func scatterLanes(ix []int32, cells []int) {
	var l0, l1, l2, l3 [laneCells]int32
	for ; len(ix) >= 4; ix = ix[4:] {
		l0[ix[0]&(laneCells-1)]++
		l1[ix[1]&(laneCells-1)]++
		l2[ix[2]&(laneCells-1)]++
		l3[ix[3]&(laneCells-1)]++
	}
	for _, k := range ix {
		l0[k&(laneCells-1)]++
	}
	for k := range cells {
		cells[k] += int(l0[k] + l1[k] + l2[k] + l3[k])
	}
}
