// Package dataset provides the relational substrate of HypDB: an in-memory,
// columnar table of dictionary-encoded categorical attributes with
// selection, projection, grouping and CSV I/O.
//
// The paper (Sec 2) fixes a relational schema with discrete domains and
// restricts OLAP queries to group-by-average queries over such tables. The
// original implementation sat on top of pandas; this package is the
// equivalent substrate in pure Go.
//
// All values are categorical. A column stores one int32 code per row plus a
// dictionary mapping codes to string labels. Numeric outcome attributes
// (e.g. a 0/1 "Delayed" flag) are stored the same way; Table.Float decodes a
// column to float64 for aggregation.
package dataset

import (
	"hypdb/internal/hyperr"

	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

// Column is a dictionary-encoded categorical attribute.
type Column struct {
	Name   string
	codes  []int32  // one entry per row; index into labels
	labels []string // dictionary: code -> label
	// index maps label -> code. Only NewColumnFromCodes builds it up front;
	// otherwise labelIndex builds it under indexOnce on the first Append, so
	// a column that is only read by code never builds it.
	index     map[string]int32
	indexOnce sync.Once
}

// newColumn creates an empty column with the given name.
func newColumn(name string) *Column {
	return &Column{Name: name}
}

// NewColumnFromStrings builds a column by dictionary-encoding vals.
func NewColumnFromStrings(name string, vals []string) *Column {
	c := newColumn(name)
	c.codes = make([]int32, 0, len(vals))
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// NewColumnFromCodes builds a column directly from codes and a dictionary.
// The caller must guarantee every code is a valid index into labels.
func NewColumnFromCodes(name string, codes []int32, labels []string) (*Column, error) {
	idx := make(map[string]int32, len(labels))
	for i, l := range labels {
		if _, dup := idx[l]; dup {
			return nil, fmt.Errorf("dataset: column %q: duplicate label %q", name, l)
		}
		idx[l] = int32(i)
	}
	for i, code := range codes {
		if code < 0 || int(code) >= len(labels) {
			return nil, fmt.Errorf("dataset: column %q: row %d has code %d outside dictionary of size %d",
				name, i, code, len(labels))
		}
	}
	return &Column{Name: name, codes: codes, labels: labels, index: idx}, nil
}

// Append adds one value to the column, extending the dictionary if needed,
// and returns the code assigned to it.
func (c *Column) Append(val string) int32 {
	index := c.labelIndex()
	if code, ok := index[val]; ok {
		c.codes = append(c.codes, code)
		return code
	}
	code := int32(len(c.labels))
	c.labels = append(c.labels, val)
	index[val] = code
	c.codes = append(c.codes, code)
	return code
}

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.codes) }

// Card returns the cardinality of the active domain (dictionary size).
func (c *Column) Card() int { return len(c.labels) }

// Code returns the dictionary code of row i.
func (c *Column) Code(i int) int32 { return c.codes[i] }

// Codes returns the backing code slice. Callers must not mutate it.
func (c *Column) Codes() []int32 { return c.codes }

// Label decodes a dictionary code back to its string label.
func (c *Column) Label(code int32) string { return c.labels[code] }

// Labels returns the dictionary. Callers must not mutate it.
func (c *Column) Labels() []string { return c.labels }

// Value returns the decoded value of row i.
func (c *Column) Value(i int) string { return c.labels[c.codes[i]] }

// labelIndex returns the label -> code map, building it from the dictionary
// on first use.
func (c *Column) labelIndex() map[string]int32 {
	c.indexOnce.Do(func() {
		if c.index == nil {
			c.index = make(map[string]int32, len(c.labels))
			for code, l := range c.labels {
				c.index[l] = int32(code)
			}
		}
	})
	return c.index
}

// cloneRows returns a deep copy of the column restricted to the given rows.
// The dictionary is compacted to the codes that actually occur, numbered in
// order of first occurrence, and allocated once at its final length. The
// clone's label index is left to labelIndex: most restricted columns are
// only ever read by code.
func (c *Column) cloneRows(rows []int) *Column {
	out := newColumn(c.Name)
	out.codes = make([]int32, len(rows))
	remap := make([]int32, len(c.labels)) // new code + 1 by old code; 0 until seen
	n := int32(0)
	for i, r := range rows {
		old := c.codes[r]
		if remap[old] == 0 {
			n++
			remap[old] = n
		}
		out.codes[i] = remap[old] - 1
	}
	if n > 0 {
		out.labels = make([]string, n)
		for old, code := range remap {
			if code != 0 {
				out.labels[code-1] = c.labels[old]
			}
		}
	}
	return out
}

// Table is a set of equal-length columns: the database instance D of the
// paper, a uniform sample of an unknown population distribution Pr(A).
type Table struct {
	cols    []*Column
	byName  map[string]int
	numRows int
}

// New creates a table from columns. All columns must have equal length and
// distinct names.
func New(cols ...*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: table needs at least one column")
	}
	t := &Table{byName: make(map[string]int, len(cols))}
	t.numRows = cols[0].Len()
	for i, c := range cols {
		if c.Len() != t.numRows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", c.Name, c.Len(), t.numRows)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate column name %q", c.Name)
		}
		t.byName[c.Name] = i
		t.cols = append(t.cols, c)
	}
	return t, nil
}

// NumRows returns the number of rows (the paper's n).
func (t *Table) NumRows() int { return t.numRows }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the column names in schema order.
func (t *Table) Columns() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// HasColumn reports whether the attribute exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// Column returns the named column or an error when absent.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no column %q: %w", name, hyperr.ErrUnknownAttribute)
	}
	return t.cols[i], nil
}

// MustColumn is Column that panics on missing attributes.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Float decodes a column into float64s by parsing its labels. Labels that do
// not parse cause an error naming the offending value.
func (t *Table) Float(name string) ([]float64, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	parsed := make([]float64, c.Card())
	for code, l := range c.labels {
		v, err := strconv.ParseFloat(l, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: column %q: value %q is not numeric", name, l)
		}
		parsed[code] = v
	}
	out := make([]float64, t.numRows)
	for i, code := range c.codes {
		out[i] = parsed[code]
	}
	return out, nil
}

// Select returns a new table containing the rows matching pred, in order.
func (t *Table) Select(pred Predicate) (*Table, error) {
	if pred == nil {
		return t, nil
	}
	match, err := pred.Eval(t)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, m := range match {
		if m {
			n++
		}
	}
	rows := make([]int, 0, n)
	for i, m := range match {
		if m {
			rows = append(rows, i)
		}
	}
	return t.SelectRows(rows)
}

// SelectRows returns a new table with exactly the given rows (in the given
// order). Dictionaries are compacted.
func (t *Table) SelectRows(rows []int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.numRows {
			return nil, fmt.Errorf("dataset: row index %d out of range [0,%d)", r, t.numRows)
		}
	}
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.cloneRows(rows)
	}
	out := &Table{cols: cols, byName: make(map[string]int, len(cols)), numRows: len(rows)}
	for i, c := range cols {
		out.byName[c.Name] = i
	}
	return out, nil
}

// Project returns a new table with only the named columns (shared storage —
// cheap). The column order follows names.
func (t *Table) Project(names ...string) (*Table, error) {
	cols := make([]*Column, 0, len(names))
	for _, n := range names {
		c, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return New(cols...)
}

// GroupKey is a composite group-by key: the codes of the grouping attributes
// for some row, rendered into a compact comparable string.
type GroupKey string

// EncodeKey renders a tuple of dictionary codes into a GroupKey using the
// canonical layout (4 little-endian bytes per code). Every key produced by
// this package — and by source.Relation backends — uses this layout, so keys
// from different producers over the same dictionaries are interchangeable.
func EncodeKey(codes ...int32) GroupKey {
	return GroupKey(appendCodes(make([]byte, 0, 4*len(codes)), codes))
}

// appendCodes appends codes to buf in the EncodeKey layout.
func appendCodes(buf []byte, codes []int32) []byte {
	for _, v := range codes {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// Codes decodes the key back into its per-attribute dictionary codes.
func (k GroupKey) Codes() []int32 {
	b := []byte(k)
	out := make([]int32, len(b)/4)
	for i := range out {
		off := i * 4
		out[i] = int32(b[off]) | int32(b[off+1])<<8 | int32(b[off+2])<<16 | int32(b[off+3])<<24
	}
	return out
}

// Field returns the i-th code of the key without decoding the whole tuple.
func (k GroupKey) Field(i int) int32 {
	off := i * 4
	return int32(k[off]) | int32(k[off+1])<<8 | int32(k[off+2])<<16 | int32(k[off+3])<<24
}

// Fields returns the number of codes packed in the key.
func (k GroupKey) Fields() int { return len(k) / 4 }

// Slice returns the sub-key holding fields [from, to).
func (k GroupKey) Slice(from, to int) GroupKey { return k[4*from : 4*to] }

// Group is one group of a group-by: its key and member row indices.
type Group struct {
	Key  GroupKey
	Rows []int
}

// GroupBy partitions the table rows by the composite value of attrs. Groups
// come in ascending GroupKey order — keys are little-endian, so codes
// compare byte-reversed — and each group lists its rows in row order. Decode
// a group's codes with Column.Label.
func (t *Table) GroupBy(attrs ...string) ([]Group, error) {
	cols := make([][]int32, len(attrs))
	cards := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.Column(a)
		if err != nil {
			return nil, err
		}
		cols[i], cards[i] = c.codes[:t.numRows], c.Card()
	}
	rows := keyOrder(cols, cards, t.numRows)
	var groups []Group
	key := make([]int32, len(cols))
	for lo := 0; lo < len(rows); {
		for i, codes := range cols {
			key[i] = codes[rows[lo]]
		}
		hi := lo + 1
	scan:
		for ; hi < len(rows); hi++ {
			for i, codes := range cols {
				if codes[rows[hi]] != key[i] {
					break scan
				}
			}
		}
		groups = append(groups, Group{Key: EncodeKey(key...), Rows: rows[lo:hi:hi]})
		lo = hi
	}
	return groups, nil
}

// keyOrder returns the indices 0..n-1 sorted by the composite key of the
// code columns cols, each of n codes below its cardinality in cards, in
// encoded-key order (codes compare byte-reversed), equal keys in index
// order. It is a least-significant-first radix sort: attributes fold, last
// first, into digits, a digit being the mixed-radix value of consecutive
// attributes' code ranks in key order, its range held within max(n, 256)
// so each counting pass stays O(n). One stable counting sort per digit
// keeps equal keys in index order. An empty key makes one pass too, which
// lists every index.
func keyOrder(cols [][]int32, cards []int, n int) []int {
	digit := make([]int32, n)
	var rows, spare []int
	for hi := len(cols); hi > 0 || rows == nil; {
		lo, size := hi, 1
		for lo > 0 && (lo == hi || size*cards[lo-1] <= max(n, 256)) {
			lo--
			size *= cards[lo]
		}
		clear(digit)
		for j := lo; j < hi; j++ {
			rank, card := keyRanks(cards[j]), int32(cards[j])
			for i, c := range cols[j] {
				digit[i] = digit[i]*card + rank[c]
			}
		}
		next := make([]int, size+1)
		for _, d := range digit {
			next[d+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		out := spare
		if out == nil {
			out = make([]int, n)
		}
		if rows == nil {
			for i, d := range digit {
				out[next[d]] = i
				next[d]++
			}
		} else {
			for _, i := range rows {
				d := digit[i]
				out[next[d]] = i
				next[d]++
			}
		}
		rows, spare = out, rows
		hi = lo
	}
	return rows
}

// keyRanks returns the rank of each code in 0..card-1 in encoded-key order,
// where codes compare byte-reversed: the identity below 256.
func keyRanks(card int) []int32 {
	order := make([]int32, card)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Compare(bits.ReverseBytes32(uint32(a)), bits.ReverseBytes32(uint32(b)))
	})
	rank := make([]int32, card)
	for r, c := range order {
		rank[c] = int32(r)
	}
	return rank
}

// AppendRow appends one row given as attribute label values in schema order.
func (t *Table) AppendRow(vals ...string) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("dataset: AppendRow got %d values, want %d", len(vals), len(t.cols))
	}
	for i, v := range vals {
		t.cols[i].Append(v)
	}
	t.numRows++
	return nil
}

// Builder incrementally assembles a table row by row.
type Builder struct {
	cols []*Column
}

// NewBuilder creates a builder over the given schema.
func NewBuilder(names ...string) *Builder {
	b := &Builder{}
	for _, n := range names {
		b.cols = append(b.cols, newColumn(n))
	}
	return b
}

// Add appends a row of label values in schema order.
func (b *Builder) Add(vals ...string) error {
	if len(vals) != len(b.cols) {
		return fmt.Errorf("dataset: Builder.Add got %d values, want %d", len(vals), len(b.cols))
	}
	for i, v := range vals {
		b.cols[i].Append(v)
	}
	return nil
}

// MustAdd is Add that panics; for generators with static shapes.
func (b *Builder) MustAdd(vals ...string) {
	if err := b.Add(vals...); err != nil {
		panic(err)
	}
}

// Table finalizes the builder.
func (b *Builder) Table() (*Table, error) { return New(b.cols...) }
