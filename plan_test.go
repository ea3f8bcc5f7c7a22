package hypdb

// White-box tests of AnalyzeAll's batch prime: which views it primes, over
// which attributes, and which queries it lets skip their own priming.

import (
	"context"
	"fmt"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
)

// primeTable has 200 rows over A (2 values), B (3), C and D (cardC and
// cardD values). The row-capped cell budget of 200 rows is 12,800 cells.
func primeTable(t *testing.T, cardC, cardD int) *Table {
	t.Helper()
	b := NewBuilder("A", "B", "C", "D")
	for i := 0; i < 200; i++ {
		b.MustAdd(fmt.Sprint(i%2), fmt.Sprint(i%3), fmt.Sprint(i%cardC), fmt.Sprint(i*7%cardD))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// rootCache returns the session's count cache.
func rootCache(t *testing.T, db *DB) *countcache.Relation {
	t.Helper()
	c, ok := db.rel.(*countcache.Relation)
	if !ok {
		t.Fatalf("session relation is a %T, not a count cache", db.rel)
	}
	return c
}

func checkPrimed(t *testing.T, got, want []bool) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("primed = %v, want %v", got, want)
	}
}

// TestPrimeBatchUnion: overlapping closures on one view, none containing
// the others — grouped queries' schema minus their groupings and their run
// sets — are primed as one cuboid over their union. Every query then skips
// its own priming, and the three distinct closures save two round trips.
func TestPrimeBatchUnion(t *testing.T) {
	db := Open(primeTable(t, 4, 5)) // 120 cells: the union fits
	queries := []Query{
		{Treatment: "A", Outcomes: []string{"B"}, Groupings: []string{"C"}},
		{Treatment: "B", Outcomes: []string{"D"}, Groupings: []string{"C"}},
	}
	ctx := context.Background()
	checkPrimed(t, db.primeBatch(ctx, queries, settings{}), []bool{true, true})
	if got, want := db.Stats().Planner, (PlannerStats{Plans: 1, Cuboids: 1, RoundTripsSaved: 2}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	cache := rootCache(t, db)
	if _, err := cache.DenseCounts(ctx, []string{"A", "B", "C", "D"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Fetches != 1 || st.Hits != 1 {
		t.Errorf("cache fetches=%d hits=%d, want one prime of the union, then a hit on it", st.Fetches, st.Hits)
	}
}

// TestPrimeBatchSubsumption: closures contained in another closure of the
// same view — a grouped query's beside an ungrouped query's whole schema —
// add no attributes to the primed cuboid, and each is served from it by
// marginalization without another backend fetch.
func TestPrimeBatchSubsumption(t *testing.T) {
	db := Open(primeTable(t, 4, 5))
	queries := []Query{
		{Treatment: "A", Outcomes: []string{"B"}},
		{Treatment: "A", Outcomes: []string{"B"}, Groupings: []string{"C"}},
	}
	ctx := context.Background()
	checkPrimed(t, db.primeBatch(ctx, queries, settings{}), []bool{true, true})
	if got, want := db.Stats().Planner, (PlannerStats{Plans: 1, Cuboids: 1, RoundTripsSaved: 2}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	cache := rootCache(t, db)
	for _, closure := range [][]string{{"A", "B", "D"}, {"A", "B", "C"}} {
		if _, err := cache.DenseCounts(ctx, closure, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Fetches != 1 || st.Derived != 2 {
		t.Errorf("cache fetches=%d derived=%d, want both subsumed closures derived from the one prime", st.Fetches, st.Derived)
	}
}

// TestPrimeBatchPerView: queries under different WHERE clauses never share
// a cuboid — one prime per view, the session's and each canonical
// restriction's — and a repeated WHERE shares its view's.
func TestPrimeBatchPerView(t *testing.T) {
	db := Open(primeTable(t, 4, 5))
	c0 := dataset.Eq{Attr: "C", Value: "0"}
	queries := []Query{
		{Treatment: "A", Outcomes: []string{"B"}},
		{Treatment: "A", Outcomes: []string{"B"}, Where: c0},
		{Treatment: "B", Outcomes: []string{"D"}, Where: c0},
		{Treatment: "A", Outcomes: []string{"B"}, Where: dataset.In{Attr: "D", Values: []string{"1", "2"}}},
	}
	checkPrimed(t, db.primeBatch(context.Background(), queries, settings{}), []bool{true, true, true, true})
	if got, want := db.Stats().Planner, (PlannerStats{Plans: 1, Cuboids: 3}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// TestPrimeBatchOverBudgetPrefix: a union over the cell budget primes its
// widest prefix by ascending cardinality, ties by name — here A, B and C,
// not D — and no query skips its own priming.
func TestPrimeBatchOverBudgetPrefix(t *testing.T) {
	db := Open(primeTable(t, 100, 100)) // 60,000 cells; A, B, C: 600
	q := Query{Treatment: "A", Outcomes: []string{"B"}}
	ctx := context.Background()
	checkPrimed(t, db.primeBatch(ctx, []Query{q, q}, settings{}), []bool{false, false})
	if got, want := db.Stats().Planner, (PlannerStats{Plans: 1, Cuboids: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	cache := rootCache(t, db)
	if _, err := cache.DenseCounts(ctx, []string{"A", "B", "C"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Fetches != 1 || st.Hits != 1 {
		t.Errorf("cache fetches=%d hits=%d, want the prefix {A, B, C} primed", st.Fetches, st.Hits)
	}
	if _, err := cache.DenseCounts(ctx, []string{"A", "D"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Fetches != 2 {
		t.Errorf("cache fetches=%d, want {A, D} fetched: D is outside the prefix", st.Fetches)
	}
}

// oddRows is a predicate without a canonical key.
type oddRows struct{}

func (oddRows) Eval(t *dataset.Table) ([]bool, error) {
	keep := make([]bool, t.NumRows())
	for i := range keep {
		keep[i] = i%2 == 1
	}
	return keep, nil
}

func (oddRows) SQL() string { return "odd rows" }

// TestPrimeBatchSkipsNonCanonicalWhere: a query whose WHERE has no
// canonical key is left to its own priming, and disabling the prime leaves
// every query to its own.
func TestPrimeBatchSkipsNonCanonicalWhere(t *testing.T) {
	ctx := context.Background()
	db := Open(primeTable(t, 4, 5))
	queries := []Query{
		{Treatment: "A", Outcomes: []string{"B"}, Where: oddRows{}},
		{Treatment: "A", Outcomes: []string{"B"}},
	}
	checkPrimed(t, db.primeBatch(ctx, queries, settings{}), []bool{false, true})
	if got, want := db.Stats().Planner, (PlannerStats{Plans: 1, Cuboids: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}

	off := Open(primeTable(t, 4, 5))
	checkPrimed(t, off.primeBatch(ctx, queries, settings{noPlanner: true}), []bool{false, false})
	if got := off.Stats().Planner; got != (PlannerStats{}) {
		t.Errorf("disabled prime recorded %+v", got)
	}
	if st := rootCache(t, off).Stats(); st.Fetches != 0 {
		t.Errorf("disabled prime fetched %d views", st.Fetches)
	}
}
