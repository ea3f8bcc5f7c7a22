package dataset

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
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
// combinations that never occur (count zero), so a cell's codes are its
// index's digits and no key is ever decoded. A view derived from often —
// the count cache's covers — lists its occupied cells once (Occupied), and
// each marginalization then walks that list: O(occupied cells), not
// O(cells). GroupBy reads a cell's group off its index in linear passes.
//
// A tabulation whose cell space exceeds the budget comes in the sparse form
// (NewCellCounts): no Cells array, only an occupied-cell list of the same
// kind, in the same cell order. The engine reads counts only through the
// accessors that serve both forms alike — NonZero, CellCounts, EachCell,
// Marginal, GroupBy, Map and Project — so no consumer branches on the form.
// Cells and the storage-layer operations (AddCells, Grown) are dense-only
// and fail on the sparse form, which Occupied does not list.
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

	occ *OccupiedCells // the sparse form's cells; nil in the dense form
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

// AddCells adds every occupied cell of src — a view in either form over the
// same attributes, each with a cardinality no larger than the dense view's
// — into the dense view, at its cell index: the delta half of delta
// application, after Grown.
func (d *DenseCounts) AddCells(src *DenseCounts) error {
	if d.occ != nil {
		return errSparse("AddCells")
	}
	if !slices.Equal(src.Attrs, d.Attrs) {
		return fmt.Errorf("dataset: add view over %v into view over %v", src.Attrs, d.Attrs)
	}
	for i, c := range src.Cards {
		if c > d.Cards[i] {
			return fmt.Errorf("dataset: attribute %s has %d codes, view holds %d", d.Attrs[i], c, d.Cards[i])
		}
	}
	var strideBuf [16]int
	strides := strideBuf[:0]
	for i, s := 0, 1; i < len(d.Cards); i++ {
		strides = append(strides, s)
		s *= d.Cards[i]
	}
	src.EachCell(func(codes []int32, n int) {
		idx := 0
		for i, c := range codes {
			idx += int(c) * strides[i]
		}
		d.Cells[idx] += n
		d.Total += n
	})
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
// counts. It sums duplicate cells, drops zeros and lists the rest in the
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
	d.occ = listCells(d, counts, codes)
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
	odo := make([]int32, k)
	if o := d.occ; o != nil {
		for j, c := range o.counts {
			for p := range odo {
				odo[p] = o.code(p, j)
			}
			fn(odo, c)
		}
		return
	}
	if k == 0 {
		if c := d.Cells[0]; c > 0 {
			fn(odo, c)
		}
		return
	}
	// Walk the cells in runs of the first attribute's codes, with an
	// odometer over the other attributes.
	run := d.Cards[0]
	for off := 0; off < len(d.Cells); off += run {
		for code, c := range d.Cells[off : off+run] {
			if c > 0 {
				odo[0] = int32(code)
				fn(odo, c)
			}
		}
		increment(odo[1:], d.Cards[1:])
	}
}

// NonZero returns the number of occupied cells — the distinct count
// |Π_attrs(D)| of the paper.
func (d *DenseCounts) NonZero() int {
	if d.occ != nil {
		return d.occ.Len()
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
	if d.occ != nil {
		return d.occ.counts
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
// sorted group-by, and both forms yield identical groups. On the dense form
// the leading attributes are the low mixed-radix digits, so a cell's group
// is its index modulo the lead space: one linear pass sizes the groups and
// a second fills them, with no odometer step and no key per cell. While
// every leading cardinality is at most 256 a key's bytes compare as its
// codes do, first attribute most significant, so walking the lead space in
// that order yields the groups sorted; wider leads sort their keys. The
// caller owns the result.
func (d *DenseCounts) GroupBy(k int) []CellGroup {
	if d.occ != nil {
		return d.occ.groupBy(k)
	}
	lead := 1
	narrow := true
	for _, card := range d.Cards[:k] {
		lead *= card
		narrow = narrow && card <= 256
	}
	// Pass 1 counts each lead cell's occupied cells into slot.
	slot := make([]int32, lead)
	cells, ngroups := 0, 0
	for off := 0; off < len(d.Cells); off += lead {
		for li, c := range d.Cells[off : off+lead] {
			if c > 0 {
				if slot[li] == 0 {
					ngroups++
				}
				slot[li]++
				cells++
			}
		}
	}
	// Number the groups in key order; slot[li] becomes the group of lead
	// cell li. All keys share one string. Constant capacities keep the
	// digit and stride scratch of up to 16 attributes off the heap.
	keys := make([]byte, 0, 4*k*ngroups)
	sizes := make([]int32, 0, ngroups)
	number := func(li int) {
		sizes = append(sizes, slot[li])
		slot[li] = int32(len(sizes) - 1)
	}
	var digitBuf [16]int32
	var strideBuf [16]int
	digits, strides := digitBuf[:0], strideBuf[:0]
	for i, s := 0, 1; i < len(d.Cards); i++ {
		digits, strides = append(digits, 0), append(strides, s)
		s *= d.Cards[i]
	}
	if narrow {
		// Odometer over the lead space, last attribute fastest, keeping the
		// lead cell index li in step.
		for li, n := 0, 0; n < lead; n++ {
			if slot[li] > 0 {
				keys = appendCodes(keys, digits[:k])
				number(li)
			}
			for i := k - 1; i >= 0; i-- {
				digits[i]++
				li += strides[i]
				if int(digits[i]) < d.Cards[i] {
					break
				}
				li -= strides[i] * d.Cards[i]
				digits[i] = 0
			}
		}
	} else {
		occupied := make([]int, 0, ngroups)
		for li, n := range slot {
			if n > 0 {
				occupied = append(occupied, li)
			}
		}
		for _, li := range occupied {
			for i := 0; i < k; i++ {
				digits[i] = int32(li / strides[i] % d.Cards[i])
			}
			keys = appendCodes(keys, digits[:k])
		}
		w := 4 * k
		order := make([]int, len(occupied))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a*w:(a+1)*w], keys[b*w:(b+1)*w]) })
		sorted := make([]byte, 0, len(keys))
		for _, i := range order {
			sorted = append(sorted, keys[i*w:(i+1)*w]...)
			number(occupied[i])
		}
		keys = sorted
	}
	// Pass 2 fills the groups from two shared arrays, walking the trailing
	// attributes' codes in step with the cell offset.
	all := string(keys)
	rest := len(d.Cards) - k
	counts := make([]int, cells)
	codes := make([]int32, rest*cells)
	groups := make([]CellGroup, ngroups)
	off := 0
	for gi, n := range sizes {
		groups[gi] = CellGroup{
			Key:    GroupKey(all[4*k*gi : 4*k*(gi+1)]),
			Counts: counts[off:off:(off + int(n))],
			Codes:  codes[rest*off : rest*off : rest*(off+int(n))],
		}
		off += int(n)
	}
	trail := digits[k:]
	clear(trail)
	for off := 0; off < len(d.Cells); off += lead {
		for li, c := range d.Cells[off : off+lead] {
			if c > 0 {
				g := &groups[slot[li]]
				g.Total += c
				g.Counts = append(g.Counts, c)
				g.Codes = append(g.Codes, trail...)
			}
		}
		increment(trail, d.Cards[k:])
	}
	return groups
}

// groupBy is GroupBy on the sparse form: the listed cells, sorted by their
// leading codes in encoded-key order and otherwise kept in cell order
// (keyOrder, as Table.GroupBy sorts rows), are cut into runs of one key.
func (o *OccupiedCells) groupBy(k int) []CellGroup {
	m, rest := o.Len(), len(o.view.Cards)-k
	cols := make([][]int32, len(o.view.Cards))
	for p := range cols {
		cols[p] = make([]int32, m)
		for j := range cols[p] {
			cols[p][j] = o.code(p, j)
		}
	}
	// The groups fill two shared arrays in sorted order; all keys share one
	// string.
	counts := make([]int, 0, m)
	codes := make([]int32, 0, rest*m)
	lead := make([]int32, k)
	var keys []byte
	groups := make([]CellGroup, 0)
	for i, j := range keyOrder(cols[:k], o.view.Cards[:k], m) {
		start := i == 0
		for p, col := range cols[:k] {
			if col[j] != lead[p] {
				start, lead[p] = true, col[j]
			}
		}
		if start {
			keys = appendCodes(keys, lead)
			groups = append(groups, CellGroup{Counts: counts[i:i], Codes: codes[rest*i : rest*i]})
		}
		g := &groups[len(groups)-1]
		g.Total += o.counts[j]
		g.Counts = append(g.Counts, o.counts[j])
		for _, col := range cols[k:] {
			g.Codes = append(g.Codes, col[j])
		}
	}
	all := string(keys)
	for gi := range groups {
		g := &groups[gi]
		g.Key = GroupKey(all[4*k*gi : 4*k*(gi+1)])
		g.Counts, g.Codes = slices.Clip(g.Counts), slices.Clip(g.Codes)
	}
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
// kept codes. On the dense form it is one pass over every cell, zero or
// not, with no key decoding; a view projected many times lists its
// occupied cells once instead (Occupied), so that each projection costs
// O(occupied cells). The sparse form projects its list's kept code columns
// into the sparse form.
func (d *DenseCounts) Project(keep []int) (*DenseCounts, error) {
	out := &DenseCounts{Attrs: make([]string, 0, len(keep)), Cards: make([]int, 0, len(keep))}
	if err := d.ProjectInto(out, keep); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectInto is Project writing into dst, a view the caller keeps as
// scratch: dst's previous contents are replaced, and its attribute, radix
// and cell storage is reused, so projecting a dense view into a dst that
// has grown to size allocates nothing. dst must not be d.
func (d *DenseCounts) ProjectInto(dst *DenseCounts, keep []int) error {
	if err := d.checkKeep(keep); err != nil {
		return err
	}
	dst.Attrs, dst.Cards = dst.Attrs[:0], dst.Cards[:0]
	size := 1
	for _, p := range keep {
		dst.Attrs = append(dst.Attrs, d.Attrs[p])
		dst.Cards = append(dst.Cards, d.Cards[p])
		size *= d.Cards[p]
	}
	dst.Total = d.Total
	if o := d.occ; o != nil {
		codes := make([]int32, 0, len(keep)*o.Len())
		for j := range o.counts {
			for _, p := range keep {
				codes = append(codes, o.code(p, j))
			}
		}
		dst.Cells, dst.occ = nil, listCells(dst, o.counts, codes)
		return nil
	}
	dst.occ = nil
	if cap(dst.Cells) < size {
		dst.Cells = make([]int, size)
	} else {
		dst.Cells = dst.Cells[:size]
		clear(dst.Cells)
	}
	d.projectCells(dst.Cells, keep)
	return nil
}

// checkKeep checks the projection positions keep against the view.
func (d *DenseCounts) checkKeep(keep []int) error {
	for i, p := range keep {
		if p < 0 || p >= len(d.Cards) {
			return fmt.Errorf("dataset: projection position %d outside view over %d attributes", p, len(d.Cards))
		}
		if slices.Contains(keep[:i], p) {
			return fmt.Errorf("dataset: duplicate projection position %d", p)
		}
	}
	return nil
}

// projectCells adds every cell of the dense view into out, the zeroed cells
// of its projection onto keep: one pass in runs of the first attribute's
// codes, with an odometer over the other attributes that keeps the output
// index in step.
func (d *DenseCounts) projectCells(out []int, keep []int) {
	if len(d.Cards) == 0 {
		out[0] += d.Cells[0]
		return
	}
	// outStride[p] is the contribution of source attribute p to the output
	// cell index (zero for summed-out attributes). Constant capacities keep
	// both slices of a view over up to 16 attributes off the heap.
	var strideBuf [16]int
	var odoBuf [16]int32
	outStride, odo := strideBuf[:0], odoBuf[:0]
	for range d.Cards {
		outStride, odo = append(outStride, 0), append(odo, 0)
	}
	stride := 1
	for _, p := range keep {
		outStride[p] = stride
		stride *= d.Cards[p]
	}
	run, step := d.Cards[0], outStride[0]
	outIdx := 0
	for off := 0; off < len(d.Cells); off += run {
		cells := d.Cells[off : off+run]
		if step == 0 {
			sum := 0
			for _, c := range cells {
				sum += c
			}
			out[outIdx] += sum
		} else {
			for j, c := range cells {
				out[outIdx+j*step] += c
			}
		}
		// Advance the odometer past the run and maintain the output index.
		for i := 1; i < len(odo); i++ {
			odo[i]++
			outIdx += outStride[i]
			if int(odo[i]) < d.Cards[i] {
				break
			}
			outIdx -= outStride[i] * d.Cards[i]
			odo[i] = 0
		}
	}
}

// OccupiedCells lists the occupied cells of one view in cell order: each
// cell's count and codes, one byte per code while every cardinality is at
// most 256 and four bytes otherwise. The codes are stored attribute by
// attribute, so a projection builds its output indices one kept attribute
// at a time in sequential passes. A list is the whole of a sparse-form
// view; a dense view projected often builds one (Occupied), whose Project
// scatters only the listed cells: O(occupied cells) instead of O(cells).
// A list is immutable once built.
type OccupiedCells struct {
	view    *DenseCounts
	counts  []int
	codes8  []uint8 // attribute p's codes at [p·Len(), (p+1)·Len()), when narrow
	codes32 []int32 // the same layout, otherwise
	narrow  bool
}

// newOccupied returns a list over view's attributes of the cells counted in
// counts, their codes all zero.
func newOccupied(view *DenseCounts, counts []int) *OccupiedCells {
	o := &OccupiedCells{view: view, counts: counts, narrow: true}
	for _, c := range view.Cards {
		o.narrow = o.narrow && c <= 256
	}
	if o.narrow {
		o.codes8 = make([]uint8, len(view.Cards)*len(counts))
	} else {
		o.codes32 = make([]int32, len(view.Cards)*len(counts))
	}
	return o
}

// code returns attribute p's code of cell j.
func (o *OccupiedCells) code(p, j int) int32 {
	if o.narrow {
		return int32(o.codes8[p*len(o.counts)+j])
	}
	return o.codes32[p*len(o.counts)+j]
}

// setCode stores v as attribute p's code of cell j.
func (o *OccupiedCells) setCode(p, j int, v int32) {
	if o.narrow {
		o.codes8[p*len(o.counts)+j] = uint8(v)
	} else {
		o.codes32[p*len(o.counts)+j] = v
	}
}

// listCells lists cells given in any order over view, in cell order: cell
// j has count counts[j] and codes codes[j·w:(j+1)·w], w = len(view.Cards).
// Equal cells are summed into one and zero counts dropped.
func listCells(view *DenseCounts, counts []int, codes []int32) *OccupiedCells {
	w := len(view.Cards)
	cell := func(j int32) []int32 { return codes[int(j)*w : int(j+1)*w] }
	cellCmp := func(a, b int32) int {
		ca, cb := codes[int(a)*w:int(a+1)*w], codes[int(b)*w:int(b+1)*w]
		for q := w - 1; q >= 0; q-- {
			if ca[q] != cb[q] {
				return cmp.Compare(ca[q], cb[q])
			}
		}
		return 0
	}
	order := make([]int32, 0, len(counts))
	for j, c := range counts {
		if c != 0 {
			order = append(order, int32(j))
		}
	}
	slices.SortFunc(order, cellCmp)
	// Count the runs of equal cells, then sum each run into one listed cell.
	n := 0
	for i, j := range order {
		if i == 0 || !slices.Equal(cell(order[i-1]), cell(j)) {
			n++
		}
	}
	o := newOccupied(view, make([]int, n))
	n = -1
	for i, j := range order {
		if i == 0 || !slices.Equal(cell(order[i-1]), cell(j)) {
			n++
			for q, v := range cell(j) {
				o.setCode(q, n, v)
			}
		}
		o.counts[n] += counts[j]
	}
	return o
}

// Occupied lists the occupied cells of the dense form, or returns nil for
// the sparse form. The view must not change afterwards.
func (d *DenseCounts) Occupied() *OccupiedCells {
	if d.occ != nil {
		return nil
	}
	o := newOccupied(d, make([]int, d.NonZero()))
	j := 0
	d.EachCell(func(codes []int32, c int) {
		o.counts[j] = c
		for p, v := range codes {
			o.setCode(p, j, v)
		}
		j++
	})
	return o
}

// Len returns the number of occupied cells listed.
func (o *OccupiedCells) Len() int { return len(o.counts) }

// Bytes returns the heap bytes the list holds, its view aside.
func (o *OccupiedCells) Bytes() int {
	return bits.UintSize/8*cap(o.counts) + cap(o.codes8) + 4*cap(o.codes32)
}

// Project is the view's Project(keep), computed from the list: each listed
// cell's count is added at the output index of its kept codes.
func (o *OccupiedCells) Project(keep []int) (*DenseCounts, error) {
	d := o.view
	if err := d.checkKeep(keep); err != nil {
		return nil, err
	}
	attrs := make([]string, len(keep))
	cards := make([]int, len(keep))
	var strideBuf [16]int // a constant capacity keeps the strides off the heap
	strides := strideBuf[:0]
	size := 1
	for i, p := range keep {
		attrs[i], cards[i] = d.Attrs[p], d.Cards[p]
		strides = append(strides, size)
		size *= d.Cards[p]
	}
	out := &DenseCounts{Attrs: attrs, Cards: cards, Cells: make([]int, size), Total: d.Total}
	if o.narrow {
		scatterOccupied(out.Cells, o.counts, o.codes8, keep, strides)
	} else {
		scatterOccupied(out.Cells, o.counts, o.codes32, keep, strides)
	}
	return out, nil
}

// scatterBlock is the number of cells scatterOccupied indexes at a time;
// it bounds the index buffer so that it stays on the stack.
const scatterBlock = 256

// scatterOccupied adds each listed count into out at the index of its kept
// codes, codes holding attribute p's codes of every cell at
// [p·len(counts), (p+1)·len(counts)). Block by block, the output indices
// are summed one kept attribute at a time, then the counts scattered.
func scatterOccupied[T uint8 | int32](out []int, counts []int, codes []T, keep, strides []int) {
	n := len(counts)
	var idx [scatterBlock]int
	for lo := 0; lo < n; lo += scatterBlock {
		hi := min(lo+scatterBlock, n)
		ix := idx[:hi-lo]
		clear(ix)
		for q, p := range keep {
			s := strides[q]
			for j, v := range codes[p*n+lo : p*n+hi][:len(ix)] {
				ix[j] += int(v) * s
			}
		}
		for j, c := range counts[lo:hi][:len(ix)] {
			out[ix[j]] += c
		}
	}
}

// Slice restricts the view to the cells whose codes at positions on
// satisfy match and projects them onto positions keep, recoded: match holds
// one flag per combination of the on attributes' codes, in the dense layout
// (first attribute fastest), recode[q] maps each code of attribute keep[q]
// to its code in the result, and cards are the result's cardinalities. The
// result is a dense view whose Total is the matched cells' total. It is nil
// when a matched cell holds a code that recode maps to −1.
func (o *OccupiedCells) Slice(keep []int, recode [][]int32, cards []int, on []int, match []bool) (*DenseCounts, error) {
	d := o.view
	if err := d.checkKeep(keep); err != nil {
		return nil, err
	}
	if err := d.checkKeep(on); err != nil {
		return nil, err
	}
	if len(recode) != len(keep) || len(cards) != len(keep) {
		return nil, fmt.Errorf("dataset: %d recodings and %d cardinalities for %d kept attributes", len(recode), len(cards), len(keep))
	}
	attrs := make([]string, len(keep))
	var strideBuf, onBuf [16]int // constant capacities keep the strides off the heap
	strides, onStrides := strideBuf[:0], onBuf[:0]
	for q, p := range keep {
		if len(recode[q]) != d.Cards[p] {
			return nil, fmt.Errorf("dataset: recoding of %q has %d codes, dictionary %d", d.Attrs[p], len(recode[q]), d.Cards[p])
		}
		for _, r := range recode[q] {
			if r >= int32(cards[q]) {
				return nil, fmt.Errorf("dataset: %q recoded to %d, outside dictionary of size %d", d.Attrs[p], r, cards[q])
			}
		}
		attrs[q] = d.Attrs[p]
	}
	out, err := NewDenseCounts(attrs, cards)
	if err != nil {
		return nil, err
	}
	size := 1
	for _, c := range cards {
		strides = append(strides, size)
		size *= c
	}
	size = 1
	for _, p := range on {
		onStrides = append(onStrides, size)
		size *= d.Cards[p]
	}
	if len(match) != size {
		return nil, fmt.Errorf("dataset: %d match flags for %d combinations", len(match), size)
	}
	var ok bool
	if o.narrow {
		out.Total, ok = sliceOccupied(out.Cells, o.counts, o.codes8, keep, recode, strides, on, onStrides, match)
	} else {
		out.Total, ok = sliceOccupied(out.Cells, o.counts, o.codes32, keep, recode, strides, on, onStrides, match)
	}
	if !ok {
		return nil, nil
	}
	return out, nil
}

// sliceOccupied adds each listed count whose codes at on index a true flag
// of match into out, at the index of its kept codes recoded, and returns
// the total added; false when a matched code recodes to −1. Block by block,
// the match indices are summed one on attribute at a time, the matched
// cells selected, and their output indices summed one kept attribute at a
// time, as scatterOccupied does.
func sliceOccupied[T uint8 | int32](out []int, counts []int, codes []T, keep []int, recode [][]int32, strides, on, onStrides []int, match []bool) (int, bool) {
	n := len(counts)
	var idx [scatterBlock]int
	var sel [scatterBlock]int32
	total := 0
	for lo := 0; lo < n; lo += scatterBlock {
		hi := min(lo+scatterBlock, n)
		ix := idx[:hi-lo]
		clear(ix)
		for q, p := range on {
			s := onStrides[q]
			for j, v := range codes[p*n+lo : p*n+hi][:len(ix)] {
				ix[j] += int(v) * s
			}
		}
		k := 0
		for j, m := range ix {
			if match[m] {
				sel[k] = int32(j)
				k++
			}
		}
		ix = idx[:k]
		clear(ix)
		for q, p := range keep {
			s, rc := strides[q], recode[q]
			col := codes[p*n+lo : p*n+hi]
			for t, j := range sel[:k] {
				r := rc[col[j]]
				if r < 0 {
					return 0, false
				}
				ix[t] += int(r) * s
			}
		}
		for t, j := range sel[:k] {
			c := counts[lo+int(j)]
			out[ix[t]] += c
			total += c
		}
	}
	return total, true
}

// Grown returns a copy of the view re-strided to the given (element-wise ≥)
// cardinalities, preserving every count at its original codes. It is the
// cell-layout half of delta application under a growing dictionary: labels
// are only ever appended to a dictionary, so an old view's cell (c0,…,ck)
// keeps exactly those codes in the enlarged space — only the strides move.
func (d *DenseCounts) Grown(cards []int) (*DenseCounts, error) {
	if d.occ != nil {
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
