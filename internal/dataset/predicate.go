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
