package countcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
	"hypdb/source/mem"
)

// countingRel wraps a relation and counts backend Counts calls.
type countingRel struct {
	source.Relation
	mu    sync.Mutex
	calls int
}

func (c *countingRel) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Relation.Counts(ctx, attrs, where)
}

func (c *countingRel) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func testTable(t testing.TB) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("A", "B", "C")
	for i := 0; i < 240; i++ {
		b.MustAdd(strconv.Itoa(i%3), strconv.Itoa((i/3)%4), strconv.Itoa(i%2))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPrimeServesAllSubsets(t *testing.T) {
	tab := testTable(t)
	inner := &countingRel{Relation: mem.New(tab)}
	c := Wrap(inner, 0)
	ctx := context.Background()

	if err := c.Prime(ctx, []string{"A", "B", "C"}, 0); err != nil {
		t.Fatal(err)
	}
	primed := inner.Calls() // counting wrapper has no DenseCounter, so the fetch shows as one Counts

	subsets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"C", "A"}, {"C", "B", "A"}, nil}
	for _, attrs := range subsets {
		got, err := c.Counts(ctx, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mem.New(tab).Counts(ctx, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("attrs %v: cached counts differ from backend", attrs)
		}
	}
	if calls := inner.Calls(); calls != primed {
		t.Errorf("backend queried %d times after priming, want %d (all subsets derived)", calls, primed)
	}
	st := c.Stats()
	if st.Derived == 0 {
		t.Errorf("no derived views recorded: %+v", st)
	}
}

func TestDenseReorder(t *testing.T) {
	tab := testTable(t)
	c := Wrap(mem.New(tab), 0)
	ctx := context.Background()
	// Request in non-canonical order: codes must follow the request order.
	dc, err := c.DenseCounts(ctx, []string{"C", "A"}, nil, 0)
	if err != nil || dc == nil {
		t.Fatalf("dense = (%v, %v)", dc, err)
	}
	want, err := mem.New(tab).DenseCounts(ctx, []string{"C", "A"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dc.Cells, want.Cells) || !reflect.DeepEqual(dc.Cards, want.Cards) {
		t.Errorf("reordered dense view differs: %+v vs %+v", dc, want)
	}
}

func TestBudgetPassThrough(t *testing.T) {
	tab := testTable(t)
	inner := &countingRel{Relation: mem.New(tab)}
	c := Wrap(inner, 4) // budget below |A|·|B| = 12
	ctx := context.Background()
	if dc, err := c.DenseCounts(ctx, []string{"A", "B"}, nil, 0); err != nil || dc != nil {
		t.Fatalf("over-budget dense = (%v, %v), want (nil, nil)", dc, err)
	}
	got, err := c.Counts(ctx, []string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.New(tab).Counts(ctx, []string{"A", "B"}, nil)
	if !reflect.DeepEqual(got, want) {
		t.Error("over-budget counts differ from backend")
	}
	if inner.Calls() == 0 {
		t.Error("over-budget request did not reach the backend")
	}
}

func TestRestrictSeparatesCaches(t *testing.T) {
	tab := testTable(t)
	c := Wrap(mem.New(tab), 0)
	ctx := context.Background()
	view, err := c.Restrict(ctx, dataset.Eq{Attr: "A", Value: "0"})
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := view.(*Relation)
	if !ok {
		t.Fatalf("restricted view is %T, want *countcache.Relation", view)
	}
	if cv.Backend() == c.Backend() {
		t.Error("restriction kept the parent backend identity")
	}
	got, err := view.Counts(ctx, []string{"B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mem.New(tab).Restrict(ctx, dataset.Eq{Attr: "A", Value: "0"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Counts(ctx, []string{"B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("restricted counts differ")
	}
	// Same predicate again: the wrapper is memoized.
	view2, err := c.Restrict(ctx, dataset.Eq{Attr: "A", Value: "0"})
	if err != nil {
		t.Fatal(err)
	}
	if view2 != view {
		t.Error("repeated restriction produced a new wrapper")
	}
	if n, _ := view.NumRows(ctx); n != 80 {
		t.Errorf("restricted NumRows = %d, want 80", n)
	}
}

// rowsBelow is a user-defined predicate keeping rows whose A code is below
// n. Every instance renders the same SQL, so only its semantics tell two
// apart.
type rowsBelow int32

func (p rowsBelow) Eval(t *dataset.Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for i := range out {
		out[i] = t.MustColumn("A").Code(i) < int32(p)
	}
	return out, nil
}

func (rowsBelow) SQL() string { return "TRUE" }

// TestRestrictWithoutCanonicalKey: a predicate with no canonical key is not
// memoized by its display SQL — two of them on one cache see their own rows
// — and the views read through such a restriction stay off the shared cell
// ledger.
func TestRestrictWithoutCanonicalKey(t *testing.T) {
	c := Wrap(mem.New(testTable(t)), 0)
	ctx := context.Background()
	for _, tc := range []struct {
		pred rowsBelow
		rows int
	}{{3, 240}, {1, 80}, {3, 240}} {
		view, err := c.Restrict(ctx, tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := view.NumRows(ctx); n != tc.rows {
			t.Errorf("Restrict(%v) has %d rows, want %d", tc.pred, n, tc.rows)
		}
		if _, err := view.Counts(ctx, []string{"A", "B"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if cells := c.TotalCachedCells(); cells != 0 {
		t.Errorf("unkeyed restrictions charged %d cells to the shared ledger", cells)
	}
}

func TestWrapIdempotent(t *testing.T) {
	c := Wrap(mem.New(testTable(t)), 0)
	if Wrap(c, 0) != c {
		t.Error("double wrap created a new cache")
	}
}

func TestMaterializeForwards(t *testing.T) {
	tab := testTable(t)
	c := Wrap(mem.New(tab), 0)
	got, err := c.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != tab {
		t.Error("materialize did not forward to the mem backend")
	}
	co := Wrap(source.CountsOnly(mem.New(tab)), 0)
	if _, err := co.Materialize(context.Background()); err == nil {
		t.Error("counts-only backend materialized through the cache")
	}
}

func TestConcurrentDense(t *testing.T) {
	tab := testTable(t)
	c := Wrap(mem.New(tab), 0)
	ctx := context.Background()
	var wg sync.WaitGroup
	subsets := [][]string{{"A"}, {"B", "C"}, {"A", "B", "C"}, {"C"}}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attrs := subsets[i%len(subsets)]
			dc, err := c.DenseCounts(ctx, attrs, nil, 0)
			if err != nil || dc == nil {
				t.Errorf("dense %v: (%v, %v)", attrs, dc, err)
				return
			}
			if dc.Total != tab.NumRows() {
				t.Errorf("dense %v: total %d", attrs, dc.Total)
			}
		}(i)
	}
	wg.Wait()
	checkIndex(t, c)
}

// TestRestrictedViewsShareCellBudget is the regression test for the shared
// cell ledger: a predicate-heavy sweep — many distinct WHERE clauses, each
// spawning its own restricted-view cache and priming a closure — must stay
// within one tree-wide cell bound instead of multiplying it per predicate.
func TestRestrictedViewsShareCellBudget(t *testing.T) {
	tab := testTable(t)
	const budget = 24 // |A|·|B| = 12 fits per view; the bound is 4× that
	c := Wrap(mem.New(tab), budget)
	ctx := context.Background()

	maxTotal := budget * maxTotalCellsFactor
	for i := 0; i < 3; i++ { // values of A: one restriction (and child cache) each
		child, err := c.Restrict(ctx, dataset.In{Attr: "A", Values: []string{strconv.Itoa(i)}})
		if err != nil {
			t.Fatal(err)
		}
		cc, ok := child.(*Relation)
		if !ok {
			t.Fatalf("restricted view is %T, want *Relation", child)
		}
		if cc.account != c.account {
			t.Fatal("restricted child does not share the root's cell ledger")
		}
		if err := cc.Prime(ctx, []string{"A", "B"}, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Counts(ctx, []string{"B", "C"}, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.TotalCachedCells(); got > maxTotal {
			t.Fatalf("after %d restricted primes: %d cached cells, bound is %d", i+1, got, maxTotal)
		}
	}
	if err := c.Prime(ctx, []string{"A", "B", "C"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalCachedCells(); got > maxTotal || got <= 0 {
		t.Fatalf("final ledger %d, want within (0, %d]", got, maxTotal)
	}

	// Counts served through the bounded tree still match the backend.
	child, err := c.Restrict(ctx, dataset.In{Attr: "A", Values: []string{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := child.Counts(ctx, []string{"B", "C"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mem.New(tab).Restrict(ctx, dataset.In{Attr: "A", Values: []string{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Counts(ctx, []string{"B", "C"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("restricted counts under the shared ledger differ from backend")
	}
	checkIndex(t, c)
}

// TestDroppedRestrictionsReleaseCells pins the ledger bookkeeping: evicting
// or invalidating restriction children returns their cells, so the ledger
// never leaks toward the bound on long predicate churn.
func TestDroppedRestrictionsReleaseCells(t *testing.T) {
	tab := testTable(t)
	c := Wrap(mem.New(tab), 0)
	ctx := context.Background()
	child, err := c.Restrict(ctx, dataset.In{Attr: "A", Values: []string{"0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := child.(*Relation).Prime(ctx, []string{"B", "C"}, 0); err != nil {
		t.Fatal(err)
	}
	if c.TotalCachedCells() == 0 {
		t.Fatal("restricted prime charged nothing to the ledger")
	}
	child.(*Relation).dropAllViews()
	if got := c.TotalCachedCells(); got != 0 {
		t.Fatalf("ledger holds %d cells after dropping every view, want 0", got)
	}
	checkIndex(t, c)
}

// checkIndex asserts the view store of c and of every restricted view below
// it: each stored view sits under its own set, lists its attributes in
// names order, and appears exactly once under each of its attributes and
// once in the all-views list; the lists hold nothing else; totalCells is
// the sum of the stored cells, each occupied-cell list counting one cell
// per 8 bytes. c must own its ledger (a root or a pin),
// whose total must equal the cells of the whole tree.
func checkIndex(t *testing.T, c *Relation) {
	t.Helper()
	if got, want := c.TotalCachedCells(), indexedCells(t, c); got != want {
		t.Errorf("ledger holds %d cells, the tree's views %d", got, want)
	}
}

// indexedCells checks the store of c and its restricted views, returning
// the cells they hold.
func indexedCells(t *testing.T, c *Relation) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	all := len(c.names)
	if len(c.byAttr) != all+1 {
		t.Fatalf("index has %d lists, want %d", len(c.byAttr), all+1)
	}
	listed := make([]map[*entry]int, len(c.byAttr))
	for i, list := range c.byAttr {
		listed[i] = make(map[*entry]int)
		for _, e := range list {
			listed[i][e]++
		}
	}
	cells := 0
	for set, e := range c.views {
		if e.set != set {
			t.Errorf("view %v stored under another set", e.dc.Attrs)
		}
		var attrs []string
		for i := range members(e.set) {
			attrs = append(attrs, c.names[i])
		}
		if !slices.Equal(e.dc.Attrs, attrs) {
			t.Errorf("view over %v lists attributes %v", attrs, e.dc.Attrs)
		}
		for _, i := range append(slices.Collect(members(e.set)), all) {
			if n := listed[i][e]; n != 1 {
				t.Errorf("view %v appears %d times in list %d", e.dc.Attrs, n, i)
			}
			delete(listed[i], e)
		}
		cells += len(e.dc.Cells)
		if o := e.occ.Load(); o != nil {
			cells += (o.Bytes() + 7) / 8
		}
	}
	for i, rest := range listed {
		for e := range rest {
			t.Errorf("list %d holds view %v, which is not stored under it", i, e.dc.Attrs)
		}
	}
	if c.totalCells != cells {
		t.Errorf("totalCells = %d, stored views hold %d", c.totalCells, cells)
	}
	for _, k := range c.restricts {
		cells += indexedCells(t, k)
	}
	return cells
}

// sameCounts reports whether two views hold the same attributes,
// cardinalities, cells and total.
func sameCounts(a, b *dataset.DenseCounts) bool {
	return slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.Cards, b.Cards) &&
		slices.Equal(a.Cells, b.Cells) && a.Total == b.Total
}

// TestCover: a request is served by the smallest cached view of its
// version whose attribute set contains it, however many views are cached
// and however narrow the cover. More than 32 three-attribute views and then
// one narrow two-attribute view are stored; every subset of the schema is
// then requested in sorted and in shuffled order. Each answer must equal a
// fresh tabulation, and the hits, derivations and fetches must match an
// oracle that searches every stored view.
func TestCover(t *testing.T) {
	ctx := context.Background()
	attrs := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	cards := []int{2, 3, 4, 5, 2, 3, 4, 5}
	rng := rand.New(rand.NewSource(7))
	b := dataset.NewBuilder(attrs...)
	for r := 0; r < 600; r++ {
		row := make([]string, len(attrs))
		for i, k := range cards {
			v := r % k // the first rows see every label
			if r >= 5 {
				v = rng.Intn(k)
			}
			row[i] = strconv.Itoa(v)
		}
		b.MustAdd(row...)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	c := Wrap(mem.New(tab), 0)

	// Requests, as attribute masks: the 35 triples over A–G, two triples
	// holding H (beyond the 32nd view), the narrow {C, H}, then every subset.
	var masks []int
	for m := 0; m < 1<<7; m++ {
		if popcount(m) == 3 {
			masks = append(masks, m)
		}
	}
	masks = append(masks, 1|1<<6|1<<7, 1<<1|1<<4|1<<7, 1<<2|1<<7)
	for m := 0; m < 1<<len(attrs); m++ {
		masks = append(masks, m)
	}

	cellsOf := func(m int) int {
		n := 1
		for i, k := range cards {
			if m&(1<<i) != 0 {
				n *= k
			}
		}
		return n
	}
	stored := map[int]bool{}
	var want Stats
	for _, m := range masks {
		var req []string
		for i, a := range attrs {
			if m&(1<<i) != 0 {
				req = append(req, a)
			}
		}
		shuffled := slices.Clone(req)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range [][]string{req, shuffled} {
			smallest := -1
			for s := range stored {
				if s&m == m && (smallest < 0 || cellsOf(s) < cellsOf(smallest)) {
					smallest = s
				}
			}
			switch {
			case stored[m]:
				want.Hits++
			case smallest >= 0:
				want.Derived++
				set, _ := setOf(c.names, req)
				c.mu.Lock()
				cover := c.findCoverLocked(set, 0)
				c.mu.Unlock()
				if cover == nil || len(cover.dc.Cells) != cellsOf(smallest) {
					t.Fatalf("%v: cover %v, want one of %d cells", order, cover, cellsOf(smallest))
				}
			default:
				want.Fetches++
			}
			stored[m] = true

			got, err := c.DenseCounts(ctx, order, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := tab.Tabulate(nil, 0, order...)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || !sameCounts(got, fresh) {
				t.Fatalf("%v: cached counts %+v, fresh tabulation %+v", order, got, fresh)
			}
			st := c.Stats()
			if st.Hits != want.Hits || st.Derived != want.Derived || st.Fetches != want.Fetches {
				t.Fatalf("%v: hits/derived/fetches %d/%d/%d, oracle %d/%d/%d",
					order, st.Hits, st.Derived, st.Fetches, want.Hits, want.Derived, want.Fetches)
			}
		}
	}
	checkIndex(t, c)
}

func popcount(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// TestInvalidRequestsPassThrough: a request naming an attribute outside
// the schema, or one attribute twice, is answered by the backend — its
// result or its error — and leaves the cache untouched.
func TestInvalidRequestsPassThrough(t *testing.T) {
	ctx := context.Background()
	backend := mem.New(testTable(t))
	c := Wrap(backend, 0)
	if err := c.Prime(ctx, []string{"A", "B", "C"}, 0); err != nil {
		t.Fatal(err)
	}
	cells, stats := c.TotalCachedCells(), c.Stats()
	for _, attrs := range [][]string{{"A", "Q"}, {"B", "A", "B"}} {
		gotDense, errDense := c.DenseCounts(ctx, attrs, nil, 0)
		wantDense, wantErr := backend.DenseCounts(ctx, attrs, nil, 0)
		gotMap, errMap := c.Counts(ctx, attrs, nil)
		wantMap, _ := backend.Counts(ctx, attrs, nil)
		if fmt.Sprint(errDense) != fmt.Sprint(wantErr) || fmt.Sprint(errMap) != fmt.Sprint(wantErr) {
			t.Errorf("%v: errors %v and %v, backend %v", attrs, errDense, errMap, wantErr)
		}
		if slices.Contains(attrs, "Q") && (!errors.Is(errDense, hyperr.ErrUnknownAttribute) || !errors.Is(errMap, hyperr.ErrUnknownAttribute)) {
			t.Errorf("%v: errors %v and %v, want ErrUnknownAttribute", attrs, errDense, errMap)
		}
		if !reflect.DeepEqual(gotDense, wantDense) || !reflect.DeepEqual(gotMap, wantMap) {
			t.Errorf("%v: cache answered %v / %v, backend %v / %v", attrs, gotDense, gotMap, wantDense, wantMap)
		}
	}
	if got := c.TotalCachedCells(); got != cells {
		t.Errorf("cached cells %d -> %d", cells, got)
	}
	if got := c.Stats(); got != stats {
		t.Errorf("stats %+v -> %+v", stats, got)
	}
	checkIndex(t, c)
}

// BenchmarkCoverSearch times one read of a 101-attribute relation whose
// cache holds ~1,000 views shaped like covariate-discovery tabulations,
// {T, X, Z1, Z2}: a hit on a cached view, a derivation of {T, X, Z1} from
// its smallest cover, and a miss that no view covers. derive-sparse
// derives three of four attributes from a cover shaped like an audit's:
// 2,652 cells (13×17×3×4), about 10% of them occupied. Derived and fetched
// views are dropped after each read, so every iteration takes its path.
func BenchmarkCoverSearch(b *testing.B) {
	ctx := context.Background()
	const candidates = 100
	attrs := []string{"T"}
	for i := 0; i < candidates; i++ {
		attrs = append(attrs, fmt.Sprintf("X%03d", i))
	}
	tb := dataset.NewBuilder(attrs...)
	for r := 0; r < 64; r++ {
		row := make([]string, len(attrs))
		for i := range row {
			row[i] = strconv.Itoa((r*(i+1) + i) % (2 + i%2))
		}
		tb.MustAdd(row...)
	}
	tab, err := tb.Table()
	if err != nil {
		b.Fatal(err)
	}
	c := Wrap(mem.New(tab), 0)
	x := func(i int) string { return attrs[1+i%candidates] }
	view := func(i, z int) []string { return []string{"T", x(i), x(i + 1 + z), x(i + 50 + z)} }
	for i := 0; i < candidates; i++ {
		for z := 0; z < 10; z++ {
			if _, err := c.DenseCounts(ctx, view(i, z), nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	read := func(b *testing.B, req func(i int) []string, drop bool) {
		for n := 0; n < b.N; n++ {
			attrs := req(n)
			if dc, err := c.DenseCounts(ctx, attrs, nil, 0); err != nil || dc == nil {
				b.Fatalf("%v: (%v, %v)", attrs, dc, err)
			}
			if drop {
				set, _ := setOf(c.names, attrs)
				c.mu.Lock()
				c.dropLocked(c.views[set])
				c.mu.Unlock()
			}
		}
	}
	b.Run("hit", func(b *testing.B) { read(b, func(i int) []string { return view(i, i%10) }, false) })
	b.Run("derive", func(b *testing.B) { read(b, func(i int) []string { return view(i, i%10)[:3] }, true) })
	b.Run("miss", func(b *testing.B) {
		read(b, func(i int) []string { return []string{x(i), x(i + 20), x(i + 30)} }, true)
	})

	rng := rand.New(rand.NewSource(1))
	sb := dataset.NewBuilder("A", "B", "C", "D")
	for r := 0; r < 280; r++ {
		sb.MustAdd(strconv.Itoa(rng.Intn(13)), strconv.Itoa(rng.Intn(17)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(4)))
	}
	stab, err := sb.Table()
	if err != nil {
		b.Fatal(err)
	}
	c = Wrap(mem.New(stab), 0)
	if err := c.Prime(ctx, stab.Columns(), 0); err != nil {
		b.Fatal(err)
	}
	b.Run("derive-sparse", func(b *testing.B) { read(b, func(int) []string { return []string{"A", "B", "D"} }, true) })

	// A restricted view's miss, sliced out of the primed top's cover, against
	// the same miss on a top that holds no cover, which the backend answers.
	pred := dataset.In{Attr: "A", Values: []string{"1", "4", "7", "10"}}
	for _, tc := range []struct {
		name string
		top  *Relation
	}{{"slice", c}, {"fetch", Wrap(mem.New(stab), 0)}} {
		b.Run("restrict-slice/"+tc.name, func(b *testing.B) {
			view, err := tc.top.Restrict(ctx, pred)
			if err != nil {
				b.Fatal(err)
			}
			c = view.(*Relation)
			read(b, func(int) []string { return []string{"B", "D"} }, true)
		})
	}
}
