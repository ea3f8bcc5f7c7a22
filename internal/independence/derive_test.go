package independence_test

import (
	"context"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source"
	"hypdb/source/mem"
)

// tabCounter counts the tabulations a relation serves: each dense view it
// hands out and each Counts read. With sparse set it declines every dense
// read, so source.Tabulate returns the sparse form.
type tabCounter struct {
	source.Relation
	sparse bool
	n      atomic.Int64
}

func (c *tabCounter) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if c.sparse {
		return nil, nil
	}
	dc, err := source.Dense(ctx, c.Relation, attrs, where, budget)
	if dc != nil {
		c.n.Add(1)
	}
	return dc, err
}

func (c *tabCounter) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	c.n.Add(1)
	return c.Relation.Counts(ctx, attrs, where)
}

// statement is one I(x;V|Z) request.
type statement struct {
	x    string
	y, z []string
}

// statements lists every (x, {y}, Z) over attrs with x before y in attrs
// and |Z| ≤ 3, and for each non-empty Z also (x, {y, z₁}, Z − z₁), z₁
// being Z's first attribute.
func statements(attrs []string) []statement {
	var out []statement
	for i, x := range attrs {
		for _, y := range attrs[i+1:] {
			var rest []string
			for _, a := range attrs {
				if a != x && a != y {
					rest = append(rest, a)
				}
			}
			for mask := 0; mask < 1<<len(rest); mask++ {
				var z []string
				for j, a := range rest {
					if mask&(1<<j) != 0 {
						z = append(z, a)
					}
				}
				if len(z) <= 3 {
					out = append(out, statement{x, []string{y}, z})
				}
				if len(z) > 0 && len(z) <= 3 {
					out = append(out, statement{x, []string{y, z[0]}, z[1:]})
				}
			}
		}
	}
	return out
}

// terms returns xZ, VZ, xVZ and Z, in the order ConditionalMI asks for them.
func (s statement) terms() [4][]string {
	with := func(extra ...string) []string { return append(slices.Clone(s.z), extra...) }
	return [4][]string{with(s.x), with(s.y...), with(append([]string{s.x}, s.y...)...), with()}
}

// TestConditionalMIDerivedMatchesScan: deriving a statement's terms from
// its one xVZ tabulation changes nothing observable. On Berkeley, Staples
// and a random DAG, for every statement of statements (single variables
// and two-attribute sets V), over dense views, forced-sparse views and
// views past the cost rule (a dense xVZ view with more cells than rows),
// with the entropy memo on and off:
//   - I(x;V|Z) is bit-identical to the chain rule over four separate
//     tabulations, and so are the entropies and distinct counts the memo
//     keeps;
//   - the memo's tally is what asking for each term in turn gives;
//   - a statement makes at most one tabulation when the rule holds.
func TestConditionalMIDerivedMatchesScan(t *testing.T) {
	ctx := context.Background()
	berkeley, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	staples, err := datagen.Staples(1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	random, _, err := datagen.Random(datagen.RandomSpec{Nodes: 6, MinCard: 2, MaxCard: 6, Rows: 4000, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	// 150 rows over cardinalities up to 6: many xyZ views are dense with
	// more cells than rows.
	small, _, err := datagen.Random(datagen.RandomSpec{Nodes: 6, MinCard: 3, MaxCard: 6, Rows: 150, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		tab      *dataset.Table
		sparse   bool
		overRule bool // some statements must fall past the cost rule
	}{
		{"berkeley", berkeley, false, false},
		{"berkeley/sparse", berkeley, true, false},
		{"staples", staples, false, true},
		{"staples/sparse", staples, true, false},
		{"random", random, false, false},
		{"random/sparse", random, true, false},
		{"random/over-rule", small, false, true},
	}
	est := stats.MillerMadow
	for _, tc := range cases {
		for _, memo := range []bool{false, true} {
			t.Run(tc.name+"/memo="+strconv.FormatBool(memo), func(t *testing.T) {
				n := tc.tab.NumRows()
				rel := &tabCounter{Relation: mem.New(tc.tab), sparse: tc.sparse}
				ref := &tabCounter{Relation: mem.New(tc.tab), sparse: tc.sparse}
				var pm, rm *countcache.Memo
				if memo {
					pm, rm = countcache.NewMemo(), countcache.NewMemo()
				}
				p, err := independence.NewProvider(ctx, rel, est, pm)
				if err != nil {
					t.Fatal(err)
				}
				scan, err := independence.NewProvider(ctx, ref, est, nil)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := independence.NewProvider(ctx, ref, est, rm)
				if err != nil {
					t.Fatal(err)
				}
				var derived, pastRule, sparseViews int
				for _, s := range statements(tc.tab.Columns()) {
					var h [4]float64
					for i, term := range s.terms() {
						if h[i], err = scan.JointEntropy(ctx, term); err != nil {
							t.Fatal(err)
						}
						if _, err := replay.JointEntropy(ctx, term); err != nil {
							t.Fatal(err)
						}
					}
					want := stats.ConditionalMI(h[0], h[1], h[2], h[3])
					view, err := source.Tabulate(ctx, ref, s.terms()[2])
					if err != nil {
						t.Fatal(err)
					}
					holds := len(view.CellCounts()) <= n
					if view.Cells == nil {
						sparseViews++
					}

					before := rel.n.Load()
					got, err := independence.ConditionalMI(ctx, p, s.x, s.y, s.z)
					if err != nil {
						t.Fatal(err)
					}
					tabs := rel.n.Load() - before
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("I(%s;%s|%v) = %v, four tabulations give %v", s.x, s.y, s.z, got, want)
					}
					switch {
					case holds && tabs > 1:
						t.Errorf("I(%s;%s|%v): %d tabulations within the cost rule, want at most 1", s.x, s.y, s.z, tabs)
					case holds && tabs == 1:
						derived++
					case !holds:
						pastRule++
					}
				}
				if memo {
					gh, gm := pm.Tally(countcache.Entropies)
					if wh, wm := rm.Tally(countcache.Entropies); gh != wh || gm != wm {
						t.Errorf("memo tally = (%d hits, %d misses), asking term by term gives (%d, %d)", gh, gm, wh, wm)
					}
				}
				if derived == 0 {
					t.Error("no statement derived its terms from one tabulation")
				}
				if tc.overRule && pastRule == 0 {
					t.Error("no statement fell past the cost rule")
				}
				if tc.sparse && sparseViews == 0 {
					t.Error("no statement tabulated the sparse form")
				}
				if !memo {
					return
				}
				// The memo now holds every term, most of them derived: their
				// entropies and distinct counts match a scan.
				for _, s := range statements(tc.tab.Columns()) {
					for _, term := range s.terms() {
						wantH, err := scan.JointEntropy(ctx, term)
						if err != nil {
							t.Fatal(err)
						}
						wantD, err := scan.DistinctCount(ctx, term)
						if err != nil {
							t.Fatal(err)
						}
						before := rel.n.Load()
						gotH, err := p.JointEntropy(ctx, term)
						if err != nil {
							t.Fatal(err)
						}
						gotD, err := p.DistinctCount(ctx, term)
						if err != nil {
							t.Fatal(err)
						}
						if rel.n.Load() != before {
							t.Fatalf("term %v was not memoized", term)
						}
						if math.Float64bits(gotH) != math.Float64bits(wantH) || gotD != wantD {
							t.Errorf("term %v: (H, distinct) = (%v, %d), scan gives (%v, %d)", term, gotH, gotD, wantH, wantD)
						}
					}
				}
			})
		}
	}
}

// BenchmarkConditionalMI runs the statements of one Grow-Shrink search
// for the Fig 1 treatment over the Fig 1 slice: two grow passes over the
// candidates with a growing boundary, then the shrink tests. Each
// iteration starts from a fresh count cache and a fresh memoizing
// provider, as one search over an over-budget closure does.
func BenchmarkConditionalMI(b *testing.B) {
	ctx := context.Background()
	tab, err := datagen.Flight(12000, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := datagen.FlightQuery()
	view, err := q.View(ctx, mem.New(tab))
	if err != nil {
		b.Fatal(err)
	}
	candidates := []string{"Airport", "Year", "Month", "DayOfWeek", "Dest", "DepTimeBlk",
		"Delayed", "Quarter", "DayofMonth", "Feature01", "Feature02", "Feature03"}
	admitted := map[string]bool{"Airport": true, "Year": true, "Dest": true, "Month": true}
	var stmts []statement
	var boundary []string
	for pass := 0; pass < 2; pass++ {
		for _, c := range candidates {
			if slices.Contains(boundary, c) {
				continue
			}
			stmts = append(stmts, statement{q.Treatment, []string{c}, slices.Clone(boundary)})
			if admitted[c] {
				boundary = append(boundary, c)
			}
		}
	}
	for _, m := range boundary {
		rest := slices.DeleteFunc(slices.Clone(boundary), func(a string) bool { return a == m })
		stmts = append(stmts, statement{q.Treatment, []string{m}, rest})
	}
	b.ReportAllocs()
	for b.Loop() {
		cc := countcache.Wrap(view, 0)
		p, err := independence.NewProvider(ctx, cc, stats.MillerMadow, cc.Memo())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range stmts {
			if _, err := independence.ConditionalMI(ctx, p, s.x, s.y, s.z); err != nil {
				b.Fatal(err)
			}
		}
	}
}
