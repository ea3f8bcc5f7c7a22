// Package query implements HypDB's OLAP query model: the group-by-average
// queries of Listing 1, their execution, and the bias-removing rewriting of
// Listing 2 — the adjustment formula (Eq 2) with exact matching for the
// total effect, and the mediator formula (Eq 3) for the natural direct
// effect. It also renders both the original and the rewritten query as SQL
// text, as HypDB shows them to the analyst.
//
// Execution consumes a source.Relation and is computed entirely from
// dictionary-coded group-by counts: avg(Y) over a group is Σ_v v·n_v / n
// because outcomes are categorical-coded numerics — which is what lets the
// same code run against the in-memory backend and against a SQL database
// with count pushdown.
package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// Query is the OLAP query of Listing 1:
//
//	SELECT T, X, avg(Y1), ..., avg(Ye) FROM D WHERE C GROUP BY T, X
type Query struct {
	// Table is the display name of the relation (SQL rendering only).
	Table string
	// Treatment is the grouping attribute under causal scrutiny (T).
	Treatment string
	// Groupings are the additional group-by attributes (X); each distinct
	// combination of their values is a context Γi.
	Groupings []string
	// Outcomes are the averaged attributes (Y1..Ye); their values must be
	// numeric.
	Outcomes []string
	// Where is the selection condition C; nil selects everything.
	Where dataset.Predicate
}

// Validate checks the query against a relation's schema, including that
// every outcome decodes to numeric values.
func (q Query) Validate(ctx context.Context, rel source.Relation) error {
	if q.Treatment == "" {
		return fmt.Errorf("query: empty treatment")
	}
	if !rel.HasAttribute(q.Treatment) {
		return fmt.Errorf("query: no treatment column %q: %w", q.Treatment, hyperr.ErrUnknownAttribute)
	}
	if len(q.Outcomes) == 0 {
		return fmt.Errorf("query: no outcome attributes")
	}
	seen := map[string]bool{q.Treatment: true}
	for _, y := range q.Outcomes {
		if !rel.HasAttribute(y) {
			return fmt.Errorf("query: no outcome column %q: %w", y, hyperr.ErrUnknownAttribute)
		}
		if seen[y] {
			return fmt.Errorf("query: attribute %q used twice", y)
		}
		seen[y] = true
		if _, err := FloatDict(ctx, rel, y); err != nil {
			return fmt.Errorf("query: outcome %q: %w", y, err)
		}
	}
	for _, x := range q.Groupings {
		if !rel.HasAttribute(x) {
			return fmt.Errorf("query: no grouping column %q: %w", x, hyperr.ErrUnknownAttribute)
		}
		if seen[x] {
			return fmt.Errorf("query: attribute %q used twice", x)
		}
		seen[x] = true
	}
	return nil
}

// FloatDict decodes an attribute's dictionary into float64s by parsing its
// labels. Labels that do not parse cause an error naming the offending
// value.
func FloatDict(ctx context.Context, rel source.Relation, attr string) ([]float64, error) {
	labels, err := rel.Labels(ctx, attr)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(labels))
	for code, l := range labels {
		v, err := strconv.ParseFloat(l, 64)
		if err != nil {
			return nil, fmt.Errorf("column %q: value %q is not numeric: %w", attr, l, hyperr.ErrNonNumericOutcome)
		}
		out[code] = v
	}
	return out, nil
}

// SQL renders the query as Listing 1 text.
func (q Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	cols := append([]string{q.Treatment}, q.Groupings...)
	for _, y := range q.Outcomes {
		cols = append(cols, "avg("+y+")")
	}
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString("\nFROM ")
	b.WriteString(q.tableName())
	if q.Where != nil {
		if w := q.Where.SQL(); w != "TRUE" {
			b.WriteString("\nWHERE ")
			b.WriteString(w)
		}
	}
	b.WriteString("\nGROUP BY ")
	b.WriteString(strings.Join(append([]string{q.Treatment}, q.Groupings...), ", "))
	return b.String()
}

func (q Query) tableName() string {
	if q.Table == "" {
		return "D"
	}
	return q.Table
}

// View applies the WHERE clause and returns the selected subpopulation as a
// restricted relation.
func (q Query) View(ctx context.Context, rel source.Relation) (source.Relation, error) {
	if err := q.Validate(ctx, rel); err != nil {
		return nil, err
	}
	view, err := rel.Restrict(ctx, q.Where)
	if err != nil {
		return nil, err
	}
	n, err := view.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("query: WHERE clause selects no rows: %w", hyperr.ErrEmptySelection)
	}
	return view, nil
}

// Row is one line of a (rewritten or original) query answer: a treatment
// value, a context (grouping values, in Groupings order), the per-outcome
// averages, and the supporting row count.
type Row struct {
	Treatment string    `json:"treatment"`
	Context   []string  `json:"context,omitempty"`
	Avgs      []float64 `json:"avgs"`
	Count     int       `json:"count,omitempty"`
}

// contextKey renders a context for map keys and sorting.
func contextKey(ctx []string) string { return strings.Join(ctx, "\x00") }

// Answer is the result of executing a query.
type Answer struct {
	Query Query
	Rows  []Row
}

// Run executes the query (Listing 1 semantics) from one group-by count over
// (T, X..., Y...) pushed to the backend.
func Run(ctx context.Context, rel source.Relation, q Query) (*Answer, error) {
	view, err := q.View(ctx, rel)
	if err != nil {
		return nil, err
	}
	yvals := make([][]float64, len(q.Outcomes))
	for i, y := range q.Outcomes {
		yvals[i], err = FloatDict(ctx, view, y)
		if err != nil {
			return nil, fmt.Errorf("query: outcome %q: %w", y, err)
		}
	}
	groupAttrs := append([]string{q.Treatment}, q.Groupings...)
	decoders, err := labelDecoders(ctx, view, groupAttrs)
	if err != nil {
		return nil, err
	}
	dc, err := source.Tabulate(ctx, view, append(append([]string(nil), groupAttrs...), q.Outcomes...))
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, g := range dc.GroupBy(len(groupAttrs)) {
		codes := g.Key.Codes()
		row := Row{
			Treatment: decoders[0][codes[0]],
			Context:   make([]string, len(q.Groupings)),
			Avgs:      outcomeSums(g, yvals),
			Count:     g.Total,
		}
		for i := range q.Groupings {
			row.Context[i] = decoders[1+i][codes[1+i]]
		}
		for oi := range row.Avgs {
			row.Avgs[oi] /= float64(g.Total)
		}
		rows = append(rows, row)
	}
	sortRows(rows)
	return &Answer{Query: q, Rows: rows}, nil
}

// outcomeSums folds a group whose trailing attributes are the outcomes into
// per-outcome sums Σ_v v·n_v, adding the cells in cell order so the sums are
// reproducible bit for bit.
func outcomeSums(g dataset.CellGroup, yvals [][]float64) []float64 {
	sums := make([]float64, len(yvals))
	for j, c := range g.Counts {
		for oi, vals := range yvals {
			sums[oi] += vals[g.Codes[j*len(yvals)+oi]] * float64(c)
		}
	}
	return sums
}

// labelDecoders loads the dictionaries of the given attributes.
func labelDecoders(ctx context.Context, rel source.Relation, attrs []string) ([][]string, error) {
	out := make([][]string, len(attrs))
	for i, a := range attrs {
		labels, err := rel.Labels(ctx, a)
		if err != nil {
			return nil, err
		}
		out[i] = labels
	}
	return out, nil
}

func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		ci, cj := contextKey(rows[i].Context), contextKey(rows[j].Context)
		if ci != cj {
			return ci < cj
		}
		return rows[i].Treatment < rows[j].Treatment
	})
}

// Comparison pairs the answers of two treatment values within one context:
// the ∆i of Prop 3.2.
type Comparison struct {
	Context []string  `json:"context,omitempty"`
	T0      string    `json:"t0"`
	T1      string    `json:"t1"`
	Avg0    []float64 `json:"avg0"`
	Avg1    []float64 `json:"avg1"`
	// Diffs[i] = Avg1[i] − Avg0[i] per outcome.
	Diffs []float64 `json:"diffs"`
	N0    int       `json:"n0"`
	N1    int       `json:"n1"`
}

// Compare pairs rows across the two treatment values per context. The
// treatment values are ordered lexicographically (T0 < T1), matching the
// paper's convention of reporting avg(t1) − avg(t0) with a deterministic
// order. Contexts missing either value are skipped.
func (a *Answer) Compare() ([]Comparison, error) {
	vals := a.treatmentValues()
	if len(vals) != 2 {
		return nil, fmt.Errorf("query: Compare needs exactly 2 treatment values, have %d (%v): %w", len(vals), vals, hyperr.ErrNonBinaryTreatment)
	}
	return a.CompareValues(vals[0], vals[1])
}

// CompareValues pairs rows for the two given treatment values.
func (a *Answer) CompareValues(t0, t1 string) ([]Comparison, error) {
	type cell struct {
		row Row
		ok  bool
	}
	byCtx := make(map[string]*[2]cell)
	order := []string{}
	for _, r := range a.Rows {
		k := contextKey(r.Context)
		slot, ok := byCtx[k]
		if !ok {
			slot = &[2]cell{}
			byCtx[k] = slot
			order = append(order, k)
		}
		switch r.Treatment {
		case t0:
			slot[0] = cell{row: r, ok: true}
		case t1:
			slot[1] = cell{row: r, ok: true}
		}
	}
	sort.Strings(order)
	var out []Comparison
	for _, k := range order {
		slot := byCtx[k]
		if !slot[0].ok || !slot[1].ok {
			continue
		}
		r0, r1 := slot[0].row, slot[1].row
		diffs := make([]float64, len(r0.Avgs))
		for i := range diffs {
			diffs[i] = r1.Avgs[i] - r0.Avgs[i]
		}
		out = append(out, Comparison{
			Context: r0.Context,
			T0:      t0, T1: t1,
			Avg0: r0.Avgs, Avg1: r1.Avgs,
			Diffs: diffs,
			N0:    r0.Count, N1: r1.Count,
		})
	}
	return out, nil
}

// treatmentValues returns the distinct treatment values present in the
// answer, sorted.
func (a *Answer) treatmentValues() []string {
	set := make(map[string]bool)
	for _, r := range a.Rows {
		set[r.Treatment] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
