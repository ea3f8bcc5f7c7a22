package hypdb

import (
	"context"
	"slices"
	"sort"
	"strings"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/source"
)

// PlannerStats aggregates the session's batch priming, reported inside
// Stats and surfaced per dataset by the server's /v1/metrics.
type PlannerStats struct {
	// Plans counts AnalyzeAll batches that primed the count cache; Cuboids
	// the views they primed, one finest group-by each.
	Plans   int
	Cuboids int
	// RoundTripsSaved accumulates the backend fetches a batch avoided versus
	// per-request priming: the distinct closures of each fully primed view,
	// less the one fetch that primed it.
	RoundTripsSaved int
}

// batchView is the count demand of one AnalyzeAll batch on one view: the
// session relation, or its restriction by one canonical WHERE.
type batchView struct {
	rel      *countcache.Relation
	attrs    map[string]bool // union of the queries' closures
	closures map[string]bool // distinct closures, keyed by sorted attrs
	queries  []int
}

// primeBatch primes the session count cache for one AnalyzeAll batch (Sec
// 6: every count a query needs is a marginal of one materialized cuboid)
// and reports which queries may skip their own priming (core's SkipPrime).
// Per view it takes the union of the queries' covariate-discovery closures
// (the schema minus the query's groupings) and, for grouped queries, their
// run sets (treatment, groupings and outcomes). It orders the union by
// ascending cardinality, ties by name, and primes the longest prefix whose
// cell space fits the row-capped budget: one backend round trip per view.
// Only queries whose view's whole union was primed skip their priming, so
// an over-budget union still serves its cheapest marginals while each query
// primes its own closure as before. Queries without a canonical WHERE are
// left alone. Priming is a cost optimization only: it never fails a batch.
func (db *DB) primeBatch(ctx context.Context, queries []Query, st settings) []bool {
	primed := make([]bool, len(queries))
	if st.noPlanner {
		return primed
	}
	root, ok := db.view().(*countcache.Relation)
	if !ok {
		return primed
	}
	rows, err := root.NumRows(ctx)
	if err != nil {
		return primed
	}
	schema := root.Attributes()
	views := make(map[string]*batchView)
	var order []string
	for i, q := range queries {
		key, canonical := dataset.PredicateKey(q.Where)
		if !canonical {
			continue
		}
		v := views[key]
		if v == nil {
			view, err := root.Restrict(ctx, q.Where)
			rel, ok := view.(*countcache.Relation)
			if err != nil || !ok {
				continue
			}
			v = &batchView{rel: rel, attrs: make(map[string]bool), closures: make(map[string]bool)}
			views[key] = v
			order = append(order, key)
		}
		v.add(excludeAll(schema, q.Groupings))
		if len(q.Groupings) > 0 {
			v.add(append(append([]string{q.Treatment}, q.Groupings...), q.Outcomes...))
		}
		v.queries = append(v.queries, i)
	}

	budget := dataset.EffectiveBudget(0, rows)
	card := make(map[string]int)
	var stats PlannerStats
	for _, key := range order {
		v := views[key]
		union, cards, err := v.byCard(ctx, root, card)
		if err != nil {
			continue
		}
		n, cells := 0, 0
		for ; n < len(union); n++ {
			size, fits := dataset.DenseSize(cards[:n+1], budget)
			if !fits {
				break
			}
			cells = size
		}
		if n == 0 {
			continue
		}
		prefix := union[:n]
		sort.Strings(prefix)
		if err := v.rel.Prime(ctx, prefix, cells); err != nil {
			continue
		}
		stats.Cuboids++
		if n == len(union) {
			stats.RoundTripsSaved += len(v.closures) - 1
			for _, i := range v.queries {
				primed[i] = true
			}
		}
	}
	if stats.Cuboids > 0 {
		db.mu.Lock()
		db.planStats.Plans++
		db.planStats.Cuboids += stats.Cuboids
		db.planStats.RoundTripsSaved += stats.RoundTripsSaved
		db.mu.Unlock()
	}
	return primed
}

// byCard returns the view's union ordered by ascending cardinality on the
// session relation, ties by name, with those cardinalities. card memoizes
// them across the batch's views.
func (v *batchView) byCard(ctx context.Context, root source.Relation, card map[string]int) ([]string, []int, error) {
	union := make([]string, 0, len(v.attrs))
	for a := range v.attrs {
		if _, ok := card[a]; !ok {
			c, err := source.Card(ctx, root, a)
			if err != nil {
				return nil, nil, err
			}
			card[a] = c
		}
		union = append(union, a)
	}
	sort.Slice(union, func(i, j int) bool {
		if card[union[i]] != card[union[j]] {
			return card[union[i]] < card[union[j]]
		}
		return union[i] < union[j]
	})
	cards := make([]int, len(union))
	for i, a := range union {
		cards[i] = card[a]
	}
	return union, cards, nil
}

// add records one closure of the view's batch.
func (v *batchView) add(closure []string) {
	for _, a := range closure {
		v.attrs[a] = true
	}
	sorted := append([]string(nil), closure...)
	sort.Strings(sorted)
	v.closures[strings.Join(slices.Compact(sorted), "\x00")] = true
}

// excludeAll returns attrs minus the given exclusions, preserving order.
func excludeAll(attrs, minus []string) []string {
	if len(minus) == 0 {
		return append([]string(nil), attrs...)
	}
	drop := make(map[string]bool, len(minus))
	for _, m := range minus {
		drop[m] = true
	}
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if !drop[a] {
			out = append(out, a)
		}
	}
	return out
}
