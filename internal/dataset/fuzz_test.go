package dataset

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hypdb/internal/hyperr"
)

// FuzzReadCSV: arbitrary bytes must never panic the loader, and every
// rejection must classify as hyperr.ErrMalformedCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("a,b\n1\n")
	f.Add("a,a\n1,2\n")
	f.Add("")
	f.Add("a,b\r\n\"x\",\"y\"\r\n")
	f.Add("a,\"b\n1,2\n")
	f.Add("Gender,Department,Accepted\nMale,A,1\nFemale,C,0\n")
	f.Add(",\n,\n")
	f.Fuzz(func(t *testing.T, data string) {
		tab, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, hyperr.ErrMalformedCSV) {
				t.Fatalf("ReadCSV error %v does not wrap ErrMalformedCSV", err)
			}
			return
		}
		// A loaded table must be internally consistent: equal-length columns
		// and a round-trippable shape.
		for _, name := range tab.Columns() {
			c, err := tab.Column(name)
			if err != nil {
				t.Fatalf("loaded table lost column %q: %v", name, err)
			}
			if c.Len() != tab.NumRows() {
				t.Fatalf("column %q has %d rows, table has %d", name, c.Len(), tab.NumRows())
			}
		}
		var b strings.Builder
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatalf("WriteCSV of loaded table: %v", err)
		}
	})
}

// FuzzParsePredicate: arbitrary text must never panic the parser; successes
// must render to SQL and evaluate, failures must classify as
// hyperr.ErrBadPredicate.
func FuzzParsePredicate(f *testing.F) {
	f.Add("Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC')")
	f.Add("a = '1' OR b = '2' AND NOT c = '3'")
	f.Add(`"quoted attr" != 'it''s'`)
	f.Add("TRUE")
	f.Add("((((a = b))))")
	f.Add("a IN ('x')")
	f.Add("NOT NOT a <> b")
	f.Add("a = '1' AND")
	f.Add("'lone string'")
	f.Fuzz(func(t *testing.T, input string) {
		pred, err := ParsePredicate(input)
		if err != nil {
			if !errors.Is(err, hyperr.ErrBadPredicate) {
				t.Fatalf("ParsePredicate(%q) error %v does not wrap ErrBadPredicate", input, err)
			}
			return
		}
		if pred == nil {
			t.Fatalf("ParsePredicate(%q) returned nil predicate without error", input)
		}
		// A parsed predicate must render and evaluate without panicking.
		_ = pred.SQL()
		tab := mustNew(
			NewColumnFromStrings("a", []string{"1", "2"}),
			NewColumnFromStrings("b", []string{"2", "3"}),
		)
		mask, err := pred.Eval(tab)
		if err != nil {
			// Unknown attributes are legal here — the fuzzer invents names —
			// but the failure must be the classified sentinel.
			if !errors.Is(err, hyperr.ErrUnknownAttribute) {
				t.Fatalf("Eval of parsed %q: %v", input, err)
			}
			return
		}
		if len(mask) != tab.NumRows() {
			t.Fatalf("Eval of parsed %q returned %d rows, want %d", input, len(mask), tab.NumRows())
		}
	})
}

// FuzzCellCounts: cells decoded from arbitrary bytes, as a remote peer's
// counts reply delivers them, either fail NewCellCounts cleanly or build a
// sparse view that answers every accessor, projection and GroupBy prefix
// exactly as the dense view of the same cells.
//
// Byte 0 picks up to four attributes; one byte per attribute gives its
// cardinality (1–8, or 250–300 with the high bit set). Each cell then takes
// two bytes per code — 0xFFFF is the out-of-dictionary code card, other
// values are taken modulo card — and one count byte: 0xFF is −1, 0xFE is
// 2^40, others count modulo 5, zeros included.
func FuzzCellCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0})
	f.Add([]byte{2, 3, 0x81, 0, 2, 0, 7, 4, 0, 1, 1, 0, 3, 4, 0, 2, 0, 7, 1})
	f.Add([]byte{3, 4, 0x80, 2, 0, 1, 1, 44, 0, 1, 0xFE, 0, 3, 0, 250, 0, 0, 2, 0, 1, 1, 44, 0, 1, 0})
	f.Add([]byte{1, 5, 0xFF, 0xFF, 1})
	f.Add([]byte{1, 5, 0, 2, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0] % 5)
		data = data[1:]
		if len(data) < k {
			return
		}
		attrs := make([]string, k)
		cards := make([]int, k)
		size := 1
		for i, b := range data[:k] {
			attrs[i] = string(rune('a' + i))
			if cards[i] = 1 + int(b%8); b&0x80 != 0 {
				cards[i] = 250 + int(b%51)
			}
			size *= cards[i]
		}
		data = data[k:]
		if size > 1<<18 {
			return
		}
		var codes []int32
		var counts []int
		valid := true
		for ; len(data) >= 2*k+1; data = data[2*k+1:] {
			for i, card := range cards {
				raw := int(data[2*i]) | int(data[2*i+1])<<8
				code := int32(raw % card)
				if raw == 0xFFFF {
					code, valid = int32(card), false
				}
				codes = append(codes, code)
			}
			switch c := data[2*k]; c {
			case 0xFF:
				counts, valid = append(counts, -1), false
			case 0xFE:
				counts = append(counts, 1<<40)
			default:
				counts = append(counts, int(c%5))
			}
		}
		sparse, err := NewCellCounts(attrs, cards, codes, counts)
		if (err == nil) != valid {
			t.Fatalf("NewCellCounts: error %v, valid input %v", err, valid)
		}
		if err != nil {
			return
		}
		dense, err := NewDenseCounts(attrs, cards)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range counts {
			idx, stride := 0, 1
			for i, card := range cards {
				idx += int(codes[j*k+i]) * stride
				stride *= card
			}
			dense.Cells[idx] += c
			dense.Total += c
		}
		checkSameCounts(t, "", sparse, dense)
		for _, keep := range fuzzKeeps(k) {
			sp, err := sparse.Project(keep)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := dense.Project(keep)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Cells != nil {
				t.Fatalf("sparse projection onto %v carries a Cells array", keep)
			}
			checkSameCounts(t, fmt.Sprintf("projection onto %v", keep), sp, dp)
			lp, err := dense.Occupied().Project(keep)
			if err != nil || !reflect.DeepEqual(lp, dp) {
				t.Fatalf("list projection onto %v differs from Project: %v", keep, err)
			}
		}
	})
}

// fuzzKeeps returns projections of a view over k attributes that drop,
// keep and reorder attributes.
func fuzzKeeps(k int) [][]int {
	keeps := [][]int{{}}
	rev := make([]int, k)
	for i := range rev {
		rev[i] = k - 1 - i
	}
	keeps = append(keeps, rev)
	if k > 1 {
		keeps = append(keeps, []int{k - 1}, rev[1:])
	}
	return keeps
}

// checkSameCounts fails unless the sparse and the dense view answer every
// accessor and every GroupBy prefix identically.
func checkSameCounts(t *testing.T, what string, sparse, dense *DenseCounts) {
	t.Helper()
	if !reflect.DeepEqual(sparse.Attrs, dense.Attrs) || !reflect.DeepEqual(sparse.Cards, dense.Cards) {
		t.Fatalf("%s: sparse over %v %v, dense over %v %v", what, sparse.Attrs, sparse.Cards, dense.Attrs, dense.Cards)
	}
	if sparse.Total != dense.Total || sparse.NonZero() != dense.NonZero() {
		t.Fatalf("%s: sparse total %d, %d cells; dense %d, %d", what, sparse.Total, sparse.NonZero(), dense.Total, dense.NonZero())
	}
	var occupied []int
	for _, c := range dense.CellCounts() {
		if c > 0 {
			occupied = append(occupied, c)
		}
	}
	if got := sparse.CellCounts(); len(got) != len(occupied) || (len(got) > 0 && !reflect.DeepEqual(got, occupied)) {
		t.Fatalf("%s: sparse CellCounts %v, dense occupied %v", what, got, occupied)
	}
	type cell struct {
		codes string
		c     int
	}
	walk := func(d *DenseCounts) []cell {
		var out []cell
		d.EachCell(func(codes []int32, c int) { out = append(out, cell{string(EncodeKey(codes...)), c}) })
		return out
	}
	if !reflect.DeepEqual(walk(sparse), walk(dense)) {
		t.Fatalf("%s: EachCell differs", what)
	}
	if !reflect.DeepEqual(sparse.Map(), dense.Map()) {
		t.Fatalf("%s: Map differs", what)
	}
	for i := range sparse.Cards {
		if !reflect.DeepEqual(sparse.Marginal(i), dense.Marginal(i)) {
			t.Fatalf("%s: Marginal(%d) differs", what, i)
		}
	}
	for k := 0; k <= len(sparse.Cards); k++ {
		if !reflect.DeepEqual(sparse.GroupBy(k), dense.GroupBy(k)) {
			t.Fatalf("%s: GroupBy(%d) differs", what, k)
		}
	}
}
