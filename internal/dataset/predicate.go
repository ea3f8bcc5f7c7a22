package dataset

import (
	"fmt"
	"slices"
	"strings"
)

// Predicate is a row filter: the WHERE condition C of the paper's queries.
// Eval returns one bool per row of t.
type Predicate interface {
	Eval(t *Table) ([]bool, error)
	// SQL renders the predicate as a SQL boolean expression, used when the
	// system prints the original and rewritten queries.
	SQL() string
}

// In matches rows whose Attr value is one of Values (SQL: Attr IN (...)).
type In struct {
	Attr   string
	Values []string
}

// Eval implements Predicate.
func (p In) Eval(t *Table) ([]bool, error) {
	c, err := t.Column(p.Attr)
	if err != nil {
		return nil, err
	}
	// Flag the matching codes by scanning the dictionary: a compacted one
	// is no longer than the rows, and a restricted column then never needs
	// its label index.
	want := make([]bool, c.Card())
	for code, l := range c.Labels() {
		want[code] = slices.Contains(p.Values, l)
	}
	out := make([]bool, t.NumRows())
	for i, code := range c.Codes() {
		out[i] = want[code]
	}
	return out, nil
}

// SQL implements Predicate.
func (p In) SQL() string {
	if len(p.Values) == 0 {
		// An empty IN list matches nothing; `Attr IN ()` is not parseable
		// SQL, so render the semantics instead.
		return "FALSE"
	}
	quoted := make([]string, len(p.Values))
	for i, v := range p.Values {
		quoted[i] = sqlString(v)
	}
	return fmt.Sprintf("%s IN (%s)", sqlIdent(p.Attr), strings.Join(quoted, ","))
}

// sqlString renders a value literal, doubling embedded quotes so the text
// round-trips through ParsePredicate.
func sqlString(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// sqlIdent renders an attribute name: bare when it is a plain word that the
// parser would not read as a keyword, double-quoted (with "" escaping)
// otherwise.
func sqlIdent(attr string) string {
	plain := attr != ""
	for _, r := range attr {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '_' || r == '.' || r == '-' || r == '+') {
			plain = false
			break
		}
	}
	switch strings.ToUpper(attr) {
	case "TRUE", "FALSE", "NOT", "AND", "OR", "IN":
		plain = false
	}
	if plain {
		return attr
	}
	return `"` + strings.ReplaceAll(attr, `"`, `""`) + `"`
}

// Eq matches rows with Attr = Value.
type Eq struct {
	Attr  string
	Value string
}

// Eval implements Predicate.
func (p Eq) Eval(t *Table) ([]bool, error) {
	c, err := t.Column(p.Attr)
	if err != nil {
		return nil, err
	}
	code := int32(slices.Index(c.Labels(), p.Value))
	out := make([]bool, t.NumRows())
	if code < 0 {
		return out, nil
	}
	for i, v := range c.Codes() {
		out[i] = v == code
	}
	return out, nil
}

// SQL implements Predicate.
func (p Eq) SQL() string { return fmt.Sprintf("%s = %s", sqlIdent(p.Attr), sqlString(p.Value)) }

// And is the conjunction of its children. An empty And matches everything
// (SQL: TRUE).
type And []Predicate

// Eval implements Predicate.
func (p And) Eval(t *Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for i := range out {
		out[i] = true
	}
	for _, child := range p {
		m, err := child.Eval(t)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = out[i] && m[i]
		}
	}
	return out, nil
}

// SQL implements Predicate.
func (p And) SQL() string {
	if len(p) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p))
	for i, child := range p {
		s := child.SQL()
		// A disjunction binds looser than AND: parenthesize it so the
		// rendered text keeps this conjunction's semantics.
		if or, ok := child.(Or); ok && len(or) > 0 {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, " AND ")
}

// Or is the disjunction of its children. An empty Or matches nothing.
type Or []Predicate

// Eval implements Predicate.
func (p Or) Eval(t *Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for _, child := range p {
		m, err := child.Eval(t)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = out[i] || m[i]
		}
	}
	return out, nil
}

// SQL implements Predicate.
func (p Or) SQL() string {
	if len(p) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(p))
	for i, child := range p {
		parts[i] = "(" + child.SQL() + ")"
	}
	return strings.Join(parts, " OR ")
}

// Not negates its child.
type Not struct{ Pred Predicate }

// Eval implements Predicate.
func (p Not) Eval(t *Table) ([]bool, error) {
	m, err := p.Pred.Eval(t)
	if err != nil {
		return nil, err
	}
	for i := range m {
		m[i] = !m[i]
	}
	return m, nil
}

// SQL implements Predicate.
func (p Not) SQL() string { return "NOT (" + p.Pred.SQL() + ")" }

// All matches every row (no WHERE clause).
type All struct{}

// Eval implements Predicate.
func (All) Eval(t *Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for i := range out {
		out[i] = true
	}
	return out, nil
}

// SQL implements Predicate.
func (All) SQL() string { return "TRUE" }

// PredicateKey renders p as a canonical key, "" for a nil predicate. The
// encoding is injective for the built-in combinators (length-prefixed
// fields, so values containing quotes or separators cannot collide the way
// the display SQL can). A user-defined Predicate has no canonical encoding —
// its semantics may be coarser than any rendering — so ok is false, and
// callers must not share anything computed under it.
func PredicateKey(p Predicate) (key string, ok bool) {
	if p == nil {
		return "", true
	}
	var b strings.Builder
	if !writePredicateKey(&b, p) {
		return "", false
	}
	return b.String(), true
}

func writePredicateKey(b *strings.Builder, p Predicate) bool {
	writeField := func(s string) { fmt.Fprintf(b, "%d:%s", len(s), s) }
	switch v := p.(type) {
	case In:
		b.WriteString("in(")
		writeField(v.Attr)
		for _, val := range v.Values {
			b.WriteByte(',')
			writeField(val)
		}
		b.WriteByte(')')
	case Eq:
		b.WriteString("eq(")
		writeField(v.Attr)
		b.WriteByte(',')
		writeField(v.Value)
		b.WriteByte(')')
	case And:
		b.WriteString("and(")
		for _, child := range v {
			if !writePredicateKey(b, child) {
				return false
			}
		}
		b.WriteByte(')')
	case Or:
		b.WriteString("or(")
		for _, child := range v {
			if !writePredicateKey(b, child) {
				return false
			}
		}
		b.WriteByte(')')
	case Not:
		b.WriteString("not(")
		if !writePredicateKey(b, v.Pred) {
			return false
		}
		b.WriteByte(')')
	case All:
		b.WriteString("all")
	case nil:
		b.WriteString("nil")
	default:
		return false
	}
	return true
}

// PredicateAttrs returns the attributes p names, sorted and without
// repeats. ok is false when p holds a predicate other than the built-in
// combinators, whose attributes cannot be known.
func PredicateAttrs(p Predicate) (attrs []string, ok bool) {
	ok = eachComparison(p, func(attr string, _ ...string) bool {
		attrs = append(attrs, attr)
		return true
	})
	if !ok {
		return nil, false
	}
	slices.Sort(attrs)
	return slices.Compact(attrs), true
}

// EvalCells evaluates p on every cell of a view over attrs whose
// dictionaries are labels: one flag per cell, in the dense layout (first
// attribute fastest), as Eval would flag a row holding the cell's labels.
// attrs must hold every attribute p names. ok is false when p compares an
// attribute with a value its dictionary lacks: a database whose collation
// equates distinct strings may match rows under such a value that the
// evaluation here cannot see.
func EvalCells(p Predicate, attrs []string, labels [][]string) (match []bool, ok bool, err error) {
	if len(attrs) != len(labels) {
		return nil, false, fmt.Errorf("dataset: %d attributes but %d dictionaries", len(attrs), len(labels))
	}
	known := eachComparison(p, func(attr string, values ...string) bool {
		i := slices.Index(attrs, attr)
		for _, v := range values {
			if i < 0 || !slices.Contains(labels[i], v) {
				return false
			}
		}
		return true
	})
	if !known {
		return nil, false, nil
	}
	n := 1
	for _, l := range labels {
		n *= len(l)
	}
	// One row per cell: attribute i's codes are the cell index's digits.
	t := &Table{numRows: n, byName: make(map[string]int, len(attrs))}
	stride := 1
	for i, a := range attrs {
		codes := make([]int32, n)
		for r := range codes {
			codes[r] = int32(r / stride % len(labels[i]))
		}
		stride *= len(labels[i])
		c, err := NewColumnFromCodes(a, codes, labels[i])
		if err != nil {
			return nil, false, err
		}
		t.byName[a] = i
		t.cols = append(t.cols, c)
	}
	match, err = p.Eval(t)
	if err != nil {
		return nil, false, err
	}
	return match, true, nil
}

// eachComparison calls fn with the attribute and values of every In and
// Eq in p. It stops and reports false when fn does, or when p holds a
// predicate other than the built-in combinators.
func eachComparison(p Predicate, fn func(attr string, values ...string) bool) bool {
	switch v := p.(type) {
	case In:
		return fn(v.Attr, v.Values...)
	case Eq:
		return fn(v.Attr, v.Value)
	case And:
		for _, child := range v {
			if !eachComparison(child, fn) {
				return false
			}
		}
	case Or:
		for _, child := range v {
			if !eachComparison(child, fn) {
				return false
			}
		}
	case Not:
		return eachComparison(v.Pred, fn)
	case All:
	default:
		return false
	}
	return true
}
