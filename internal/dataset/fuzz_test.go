package dataset

import (
	"errors"
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
