package dataset

import (
	"errors"
	"reflect"
	"testing"

	"hypdb/internal/hyperr"
)

func TestParsePredicate(t *testing.T) {
	cases := []struct {
		in   string
		want Predicate
	}{
		{"Carrier = 'AA'", Eq{Attr: "Carrier", Value: "AA"}},
		{"Carrier = AA", Eq{Attr: "Carrier", Value: "AA"}},
		{`"Carrier" = 'AA'`, Eq{Attr: "Carrier", Value: "AA"}},
		{"Carrier != 'AA'", Not{Pred: Eq{Attr: "Carrier", Value: "AA"}}},
		{"Carrier <> 'AA'", Not{Pred: Eq{Attr: "Carrier", Value: "AA"}}},
		{"Carrier IN ('AA','UA')", In{Attr: "Carrier", Values: []string{"AA", "UA"}}},
		{"Carrier in ( 'AA' , 'UA' )", In{Attr: "Carrier", Values: []string{"AA", "UA"}}},
		{"Name = 'it''s'", Eq{Attr: "Name", Value: "it's"}},
		{"TRUE", All{}},
		{"false", Or{}},
		{"NOT (Carrier = 'AA')", Not{Pred: Eq{Attr: "Carrier", Value: "AA"}}},
		{
			"Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC')",
			And{
				In{Attr: "Carrier", Values: []string{"AA", "UA"}},
				In{Attr: "Airport", Values: []string{"COS", "MFE", "MTJ", "ROC"}},
			},
		},
		{
			// OR binds looser than AND.
			"a = '1' OR b = '2' AND c = '3'",
			Or{
				Eq{Attr: "a", Value: "1"},
				And{Eq{Attr: "b", Value: "2"}, Eq{Attr: "c", Value: "3"}},
			},
		},
		{
			"(a = '1' OR b = '2') AND NOT c = '3'",
			And{
				Or{Eq{Attr: "a", Value: "1"}, Eq{Attr: "b", Value: "2"}},
				Not{Pred: Eq{Attr: "c", Value: "3"}},
			},
		},
	}
	for _, tc := range cases {
		got, err := ParsePredicate(tc.in)
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePredicate(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

// TestParsePredicateRoundTrip: the built-in combinators' SQL renderings
// parse back to an equivalent predicate.
func TestParsePredicateRoundTrip(t *testing.T) {
	preds := []Predicate{
		Eq{Attr: "Gender", Value: "Female"},
		In{Attr: "Carrier", Values: []string{"AA", "UA"}},
		And{
			In{Attr: "Carrier", Values: []string{"AA", "UA"}},
			In{Attr: "Airport", Values: []string{"COS", "MFE", "MTJ", "ROC"}},
		},
		Or{Eq{Attr: "a", Value: "1"}, Eq{Attr: "b", Value: "2"}},
		Not{Pred: Eq{Attr: "a", Value: "1"}},
		All{},
		// The precedence trap: a disjunction inside a conjunction must
		// render with parentheses or the text means a OR (b AND a).
		And{
			Or{Eq{Attr: "a", Value: "1"}, Eq{Attr: "b", Value: "2"}},
			Eq{Attr: "a", Value: "2"},
		},
		// Values with embedded quotes and attribute names that are not
		// bare words must render in escaped, re-parseable form.
		Eq{Attr: "weird attr", Value: "it's"},
		In{Attr: "weird attr", Values: []string{"it's", `a"b`}},
		// Attribute names that collide with grammar keywords must render
		// quoted, and an empty IN list renders as its semantics (FALSE).
		Eq{Attr: "TRUE", Value: "x"},
		Eq{Attr: "Or", Value: "1"},
		In{Attr: "a"},
	}
	tab := mustNew(
		NewColumnFromStrings("Gender", []string{"Female", "Male", "Female"}),
		NewColumnFromStrings("Carrier", []string{"AA", "UA", "DL"}),
		NewColumnFromStrings("Airport", []string{"COS", "ROC", "SEA"}),
		NewColumnFromStrings("a", []string{"1", "2", "1"}),
		NewColumnFromStrings("b", []string{"2", "2", "3"}),
		NewColumnFromStrings("weird attr", []string{"it's", "x", "it's"}),
		NewColumnFromStrings("TRUE", []string{"x", "y", "x"}),
		NewColumnFromStrings("Or", []string{"1", "2", "1"}),
	)
	for _, p := range preds {
		back, err := ParsePredicate(p.SQL())
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", p.SQL(), err)
			continue
		}
		want, err := p.Eval(tab)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Eval(tab)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %q changed semantics: got %v, want %v", p.SQL(), got, want)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"Carrier",
		"Carrier =",
		"Carrier IN",
		"Carrier IN (",
		"Carrier IN ()",
		"Carrier IN ('AA'",
		"= 'AA'",
		"(a = '1'",
		"a = '1' b = '2'",
		"a = 'unterminated",
		"a ~ '1'",
		"NOT",
		"a = '1' AND",
	}
	for _, in := range bad {
		p, err := ParsePredicate(in)
		if err == nil {
			t.Errorf("ParsePredicate(%q) = %#v, want error", in, p)
			continue
		}
		if !errors.Is(err, hyperr.ErrBadPredicate) {
			t.Errorf("ParsePredicate(%q) error %v does not wrap ErrBadPredicate", in, err)
		}
	}
}
