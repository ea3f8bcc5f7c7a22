// Package planner implements HypDB's lattice-aware multi-query planner:
// given the count demands of a whole heterogeneous analyze/audit batch —
// each demand an attribute closure over one (possibly restricted) view —
// it solves a small materialized-view-selection problem over the attribute
// lattice and picks a frontier of cuboids to prime the count cache with,
// instead of one finest group-by per request.
//
// The cost model is the one the paper's cube optimization (Sec 6) implies:
// a cuboid's materialization cost is its estimated cell count (the product
// of the dictionary cardinalities of its attributes), bounded by the cell
// budget, while every cuboid fetched is one backend round trip — and on
// SQL or remote backends a round trip costs 10–100x what tabulating the
// same cells from memory does. Merging two demands into one covering
// cuboid therefore pays whenever the extra cells it materializes are
// cheaper than the round trip it saves; the planner merges greedily in
// that order until nothing profitable is left, then primes each surviving
// cuboid once. Demands whose closures exceed the budget get a trimmed
// best-effort cuboid (the widest prefix of their attributes, by ascending
// cardinality, that fits) so their cheapest marginals are still served
// from the cache.
//
// The planner is deliberately storage-agnostic: it sees demands, a
// cardinality oracle and a Primer per view, and it never fetches counts
// itself. The facade extracts demands from each AnalyzeAll batch and
// Audit sweep and executes that call's plan against the session count
// cache.
package planner

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"hypdb/internal/dataset"
	"hypdb/source"
)

// Primer is the count-cache capability a plan executes against: one
// backend round trip fetching the finest group-by over attrs, bounded by
// the cell budget. internal/countcache.Relation implements it.
type Primer interface {
	Prime(ctx context.Context, attrs []string, budget int) error
}

// Demand is one count demand of a batch: the attribute closure some
// request's counts range over, on the view they must be read from.
type Demand struct {
	// Source labels the demand's origin for the EXPLAIN dump, e.g.
	// "analyze[3] cd" or "audit".
	Source string
	// Attrs is the attribute closure: every count the request needs is
	// over a subset of it.
	Attrs []string
	// View is the relation the cuboid must be primed on — the session
	// relation, or a restricted child for predicated demands. Views that
	// do not implement Primer make the demand unplannable.
	View source.Relation
	// Key groups demands that may share cuboids: demands over the same
	// view under the same predicate. Callers build it from the backend
	// identity plus the rendered predicate.
	Key string
}

// Config tunes one planning run.
type Config struct {
	// CellBudget bounds each cuboid's cell space (product of attribute
	// cardinalities); <= 0 means dataset.DefaultCellBudget. The effective
	// per-cuboid bound is additionally row-capped like every dense
	// tabulation (dataset.EffectiveBudget).
	CellBudget int
	// TotalBudget bounds the plan's summed cells; <= 0 means four times
	// the per-cuboid budget (the count cache's own total-cell factor).
	TotalBudget int
	// FetchCost is the estimated cost of one backend round trip, in cell
	// units — the break-even number of extra cells worth materializing to
	// save one fetch. <= 0 means rows (a mem tabulation scans the rows
	// once); SQL and remote callers pass 10–100x that.
	FetchCost int
	// Rows is the relation's row count, used for the row cap and the
	// default FetchCost.
	Rows int
	// Card is the cardinality oracle: dictionary sizes of the session
	// relation. Required.
	Card func(ctx context.Context, attr string) (int, error)
}

// Cuboid is one selected lattice node: a view to prime and the demands it
// serves by marginalization.
type Cuboid struct {
	// Attrs is the cuboid's attribute set, sorted.
	Attrs []string
	// Key is the demand group the cuboid belongs to.
	Key string
	// Cells is the estimated cell count (exact when the dictionary is).
	Cells int
	// Partial marks a trimmed best-effort cuboid for a demand whose full
	// closure exceeded the cell budget: its marginals serve the demand's
	// cheapest subsets, but not all of them.
	Partial bool

	view source.Relation
}

// Plan is a solved batch: the cuboid frontier plus the bookkeeping the
// stats surfaces and the EXPLAIN dump report.
type Plan struct {
	// Demands echoes the input batch.
	Demands []Demand
	// Cuboids is the selected frontier, in priming order.
	Cuboids []Cuboid
	// Assign maps each demand to the index of the cuboid serving it, or
	// -1 for demands no cuboid fully covers (their counts fall through to
	// the backend per subset, exactly the unplanned path).
	Assign []int
	// Cells is the plan's total estimated cells materialized.
	Cells int
	// RoundTrips is the number of backend fetches the plan issues (one
	// per cuboid); NaiveTrips is what per-request priming would issue
	// (one per distinct closure). RoundTrips <= NaiveTrips always.
	RoundTrips int
	NaiveTrips int
	// Projected counts demands served by marginalizing a strictly wider
	// cuboid — the multi-query sharing the plan bought.
	Projected int
}

// node is one in-progress cuboid during the greedy merge.
type node struct {
	attrs   []string
	cells   int
	demands []int // demand indices
	partial bool
}

// New solves the materialized-view-selection problem for one batch of
// demands. Only context errors are returned: a demand whose view cannot
// be planned (no Primer, unknown cardinalities) is left unassigned rather
// than failing the batch.
func New(ctx context.Context, cfg Config, demands []Demand) (*Plan, error) {
	if cfg.Card == nil {
		return nil, fmt.Errorf("planner: Config.Card is required")
	}
	budget := cfg.CellBudget
	if budget <= 0 {
		budget = dataset.DefaultCellBudget
	}
	budget = dataset.EffectiveBudget(budget, cfg.Rows)
	total := cfg.TotalBudget
	if total <= 0 {
		total = budget * 4
	}
	fetchCost := cfg.FetchCost
	if fetchCost <= 0 {
		fetchCost = cfg.Rows
	}

	p := &Plan{Demands: demands, Assign: make([]int, len(demands))}
	for i := range p.Assign {
		p.Assign[i] = -1
	}

	// Group demands by key: cuboids never span views (a cuboid over a
	// restricted view answers only counts under that predicate).
	groups := make(map[string][]int)
	var order []string
	for i, d := range demands {
		if _, ok := d.View.(Primer); !ok || len(d.Attrs) == 0 {
			continue
		}
		if _, seen := groups[d.Key]; !seen {
			order = append(order, d.Key)
		}
		groups[d.Key] = append(groups[d.Key], i)
	}
	sort.Strings(order)

	cards := make(map[string]int)
	card := func(attr string) (int, error) {
		if c, ok := cards[attr]; ok {
			return c, nil
		}
		c, err := cfg.Card(ctx, attr)
		if err != nil || c <= 0 {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			return 0, err
		}
		cards[attr] = c
		return c, nil
	}

	for _, key := range order {
		if err := p.planGroup(groups[key], key, budget, fetchCost, card); err != nil {
			return nil, err
		}
	}

	// Enforce the plan-wide budget: drop the largest cuboids until the
	// total fits, unassigning their demands (they fall through to the
	// unplanned path, never to a wrong answer).
	for {
		sum := 0
		largest, li := -1, -1
		for i, c := range p.Cuboids {
			sum += c.Cells
			if c.Cells > largest {
				largest, li = c.Cells, i
			}
		}
		if sum <= total || li < 0 {
			p.Cells = sum
			break
		}
		for d, a := range p.Assign {
			if a == li {
				p.Assign[d] = -1
			} else if a > li {
				p.Assign[d] = a - 1
			}
		}
		p.Cuboids = append(p.Cuboids[:li], p.Cuboids[li+1:]...)
	}
	p.RoundTrips = len(p.Cuboids)
	for i, a := range p.Assign {
		if a >= 0 && len(p.Demands[i].Attrs) < len(p.Cuboids[a].Attrs) {
			p.Projected++
		}
	}
	return p, nil
}

// planGroup runs the greedy selection for one demand group (one view, one
// predicate) and appends the chosen cuboids to the plan.
func (p *Plan) planGroup(idxs []int, key string, budget, fetchCost int, card func(string) (int, error)) error {
	// Distinct closures, canonicalized. NaiveTrips counts them: the
	// per-request path primes each distinct closure once.
	type closure struct {
		attrs   []string
		demands []int
	}
	distinct := make(map[string]*closure)
	var corder []string
	for _, di := range idxs {
		attrs := append([]string(nil), p.Demands[di].Attrs...)
		sort.Strings(attrs)
		attrs = dedup(attrs)
		k := strings.Join(attrs, "\x00")
		if c, ok := distinct[k]; ok {
			c.demands = append(c.demands, di)
			continue
		}
		distinct[k] = &closure{attrs: attrs, demands: []int{di}}
		corder = append(corder, k)
	}
	p.NaiveTrips += len(distinct)
	sort.Strings(corder)

	// Initial lattice nodes: one per distinct closure, costed by the
	// dictionary. Closures over budget get a trimmed best-effort node.
	var nodes []*node
	for _, k := range corder {
		c := distinct[k]
		cells, err := cellsOf(c.attrs, budget, card)
		if err != nil {
			return err
		}
		if cells > 0 {
			nodes = append(nodes, &node{attrs: c.attrs, cells: cells, demands: c.demands})
			continue
		}
		trimmed, tcells, err := trim(c.attrs, budget, card)
		if err != nil {
			return err
		}
		if trimmed != nil {
			nodes = append(nodes, &node{attrs: trimmed, cells: tcells, demands: c.demands, partial: true})
		}
	}

	// Subsumption: a closure contained in another is served by projection
	// for free — fold it in before any merging.
	nodes = foldSubsets(nodes)

	// Greedy agglomerative merge: repeatedly take the pair whose union
	// fits the budget and maximizes gain = fetch saved - extra cells
	// materialized, until no merge is profitable. Partial nodes never
	// merge (their closure is already over budget).
	for {
		bestGain, bi, bj := 0, -1, -1
		var bestAttrs []string
		var bestCells int
		for i := 0; i < len(nodes); i++ {
			if nodes[i].partial {
				continue
			}
			for j := i + 1; j < len(nodes); j++ {
				if nodes[j].partial {
					continue
				}
				u := unionSorted(nodes[i].attrs, nodes[j].attrs)
				ucells, err := cellsOf(u, budget, card)
				if err != nil {
					return err
				}
				if ucells <= 0 {
					continue
				}
				gain := fetchCost - (ucells - nodes[i].cells - nodes[j].cells)
				if gain > bestGain {
					bestGain, bi, bj = gain, i, j
					bestAttrs, bestCells = u, ucells
				}
			}
		}
		if bi < 0 {
			break
		}
		merged := &node{
			attrs:   bestAttrs,
			cells:   bestCells,
			demands: append(append([]int(nil), nodes[bi].demands...), nodes[bj].demands...),
		}
		nodes = append(nodes[:bj], nodes[bj+1:]...)
		nodes[bi] = merged
		nodes = foldSubsets(nodes)
	}

	for _, n := range nodes {
		ci := len(p.Cuboids)
		p.Cuboids = append(p.Cuboids, Cuboid{
			Attrs:   n.attrs,
			Key:     key,
			Cells:   n.cells,
			Partial: n.partial,
			view:    p.Demands[n.demands[0]].View,
		})
		if !n.partial {
			for _, di := range n.demands {
				p.Assign[di] = ci
			}
		}
	}
	return nil
}

// Execute primes each cuboid's view — one backend round trip per cuboid.
// The budget passed to Prime is the cuboid's own cell count, so the cache
// stores exactly what the plan costed.
func (p *Plan) Execute(ctx context.Context) error {
	for _, c := range p.Cuboids {
		pr, ok := c.view.(Primer)
		if !ok {
			continue
		}
		if err := pr.Prime(ctx, c.Attrs, c.Cells); err != nil {
			return err
		}
	}
	return nil
}

// Saved is the round trips the plan avoids versus per-request priming.
func (p *Plan) Saved() int {
	if s := p.NaiveTrips - p.RoundTrips; s > 0 {
		return s
	}
	return 0
}

// WriteText renders the EXPLAIN-style plan dump.
func (p *Plan) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "plan: %d demands -> %d cuboids, %d cells, %d round trips (naive %d, saved %d)\n",
		len(p.Demands), len(p.Cuboids), p.Cells, p.RoundTrips, p.NaiveTrips, p.Saved()); err != nil {
		return err
	}
	for i, c := range p.Cuboids {
		note := ""
		if c.Partial {
			note = " (trimmed: closure over budget)"
		}
		served := 0
		for _, a := range p.Assign {
			if a == i {
				served++
			}
		}
		if _, err := fmt.Fprintf(w, "  cuboid %d: {%s} cells=%d serves %d demand(s)%s\n",
			i, strings.Join(c.Attrs, ", "), c.Cells, served, note); err != nil {
			return err
		}
	}
	for i, d := range p.Demands {
		how := "unplanned (backend per subset)"
		if a := p.Assign[i]; a >= 0 {
			if len(d.Attrs) < len(p.Cuboids[a].Attrs) {
				how = fmt.Sprintf("projection of cuboid %d", a)
			} else {
				how = fmt.Sprintf("cuboid %d", a)
			}
		}
		if _, err := fmt.Fprintf(w, "  demand %s {%s}: %s\n", d.Source, strings.Join(d.Attrs, ", "), how); err != nil {
			return err
		}
	}
	return nil
}

// cellsOf estimates a cuboid's cells, or 0 when it exceeds the budget or a
// cardinality is unknown. Context errors from the oracle propagate.
func cellsOf(attrs []string, budget int, card func(string) (int, error)) (int, error) {
	cards := make([]int, 0, len(attrs))
	for _, a := range attrs {
		c, err := card(a)
		if err != nil {
			return 0, err
		}
		if c <= 0 {
			return 0, nil
		}
		cards = append(cards, c)
	}
	size, ok := dataset.DenseSize(cards, budget)
	if !ok {
		return 0, nil
	}
	return size, nil
}

// trim returns the widest prefix of attrs — taken in ascending cardinality
// order, ties by name — whose cells fit the budget, for best-effort
// coverage of an over-budget closure. nil when not even one attribute fits.
func trim(attrs []string, budget int, card func(string) (int, error)) ([]string, int, error) {
	type ac struct {
		attr string
		card int
	}
	byCard := make([]ac, 0, len(attrs))
	for _, a := range attrs {
		c, err := card(a)
		if err != nil {
			return nil, 0, err
		}
		if c <= 0 {
			return nil, 0, nil
		}
		byCard = append(byCard, ac{a, c})
	}
	sort.Slice(byCard, func(i, j int) bool {
		if byCard[i].card != byCard[j].card {
			return byCard[i].card < byCard[j].card
		}
		return byCard[i].attr < byCard[j].attr
	})
	kept, cells := []string(nil), 1
	for _, x := range byCard {
		if cells > budget/x.card {
			break
		}
		cells *= x.card
		kept = append(kept, x.attr)
	}
	if len(kept) == 0 {
		return nil, 0, nil
	}
	sort.Strings(kept)
	return kept, cells, nil
}

// foldSubsets removes nodes whose attribute set is contained in another
// node's, reassigning their demands to the smallest-cells surviving
// superset — those demands are served by projection for free. Equal sets
// (possible after a merge) keep the earlier node.
func foldSubsets(nodes []*node) []*node {
	survives := make([]bool, len(nodes))
	for i, n := range nodes {
		survives[i] = true
		if n.partial {
			continue
		}
		for j, m := range nodes {
			if i == j || m.partial || len(m.attrs) < len(n.attrs) {
				continue
			}
			if len(m.attrs) == len(n.attrs) && j > i {
				continue
			}
			if isSubset(n.attrs, m.attrs) {
				survives[i] = false
				break
			}
		}
	}
	out := make([]*node, 0, len(nodes))
	for i, n := range nodes {
		if survives[i] {
			out = append(out, n)
			continue
		}
		var host *node
		for j, m := range nodes {
			if !survives[j] || m.partial {
				continue
			}
			if isSubset(n.attrs, m.attrs) && (host == nil || m.cells < host.cells) {
				host = m
			}
		}
		// A surviving superset always exists (subset containment is
		// transitive and chains end at a maximal survivor).
		host.demands = append(host.demands, n.demands...)
	}
	return out
}

// isSubset reports whether sorted set a is contained in sorted set b.
func isSubset(a, b []string) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// unionSorted merges two sorted, deduplicated attribute sets.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// dedup removes adjacent duplicates from a sorted slice, in place.
func dedup(sorted []string) []string {
	out := sorted[:0]
	for _, s := range sorted {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}
