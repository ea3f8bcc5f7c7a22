package core

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/memsql"
	"hypdb/internal/query"
	"hypdb/internal/stats"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sqldb"
)

// prepTable builds a table with a treatment, a genuine covariate, a 1-1
// code for the treatment, a near-copy of the covariate, and a key column.
func prepTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := dataset.NewBuilder("carrier", "carrier_code", "airport", "airport_wac", "id", "delayed")
	carriers := []string{"AA", "UA"}
	codes := []string{"19805", "19977"}
	airports := []string{"COS", "MFE", "MTJ", "ROC"}
	wacs := []string{"82", "74", "82x", "74x"}
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		a := rng.Intn(4)
		d := "0"
		if rng.Float64() < 0.3 {
			d = "1"
		}
		b.MustAdd(carriers[c], codes[c], airports[a], wacs[a], strconv.Itoa(i), d)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPrepareCandidatesDropsFDWithTreatment(t *testing.T) {
	tab := prepTable(t, 2000)
	kept, dropped, err := PrepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"carrier_code", "airport", "airport_wac", "id"}, PrepareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(kept, "carrier_code") {
		t.Errorf("carrier_code (1-1 with treatment) kept: %v", kept)
	}
	if !droppedFor(dropped, "carrier_code", DropFDWithTreatment) {
		t.Errorf("carrier_code not dropped for FD-with-treatment: %+v", dropped)
	}
	if !containsStr(kept, "airport") {
		t.Errorf("airport wrongly dropped: %v (dropped %+v)", kept, dropped)
	}
}

func TestPrepareCandidatesDropsFDPeer(t *testing.T) {
	tab := prepTable(t, 2000)
	kept, dropped, err := PrepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"airport", "airport_wac"}, PrepareConfig{SkipKeyDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	// airport comes first, so airport_wac is the dropped peer.
	if !containsStr(kept, "airport") || containsStr(kept, "airport_wac") {
		t.Errorf("kept = %v, want airport only", kept)
	}
	if !droppedFor(dropped, "airport_wac", DropFDPeer) {
		t.Errorf("airport_wac not dropped as FD peer: %+v", dropped)
	}
}

func TestPrepareCandidatesDropsKeys(t *testing.T) {
	tab := prepTable(t, 2000)
	kept, dropped, err := PrepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"id", "airport"}, PrepareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(kept, "id") {
		t.Errorf("key column kept: %v", kept)
	}
	if !droppedFor(dropped, "id", DropKeyLike) {
		t.Errorf("id not dropped as key-like: %+v", dropped)
	}
	if !containsStr(kept, "airport") {
		t.Errorf("airport wrongly dropped: %+v", dropped)
	}
}

func TestPrepareCandidatesSkipsTreatmentAndValidates(t *testing.T) {
	tab := prepTable(t, 500)
	kept, _, err := PrepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"carrier", "airport"}, PrepareConfig{SkipKeyDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(kept, "carrier") {
		t.Error("treatment kept as its own candidate")
	}
	if _, _, err := PrepareCandidates(context.Background(), mem.New(tab), "missing", []string{"airport"}, PrepareConfig{}); err == nil {
		t.Error("missing treatment accepted")
	}
	if _, _, err := PrepareCandidates(context.Background(), mem.New(tab), "carrier", []string{"missing"}, PrepareConfig{SkipKeyDetection: true}); err == nil {
		t.Error("missing candidate accepted")
	}
}

func TestDetectKeyAttributesSmallTable(t *testing.T) {
	// Too small for subsampling: detector declines to flag anything.
	b := dataset.NewBuilder("x")
	for i := 0; i < 50; i++ {
		b.MustAdd(strconv.Itoa(i))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := detectKeyAttributes(context.Background(), mem.New(tab), []string{"x"}, PrepareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("tiny table flagged keys: %v", keys)
	}
}

func droppedFor(dropped []Dropped, attr string, reason DropReason) bool {
	for _, d := range dropped {
		if d.Attr == attr && d.Reason == reason {
			return true
		}
	}
	return false
}

// fig1Slices are the Fig 1 queries of the analyst-flight benchmark workload:
// Carrier -> Delayed over two carriers at a set of airports. The first is
// the paper's Fig 1 query.
var fig1Slices = []struct {
	carriers [2]string
	airports []string
}{
	{[2]string{"AA", "UA"}, []string{"COS", "MFE", "MTJ", "ROC"}},
	{[2]string{"AA", "UA"}, []string{"COS", "ROC"}},
	{[2]string{"AA", "UA"}, []string{"MFE", "ROC"}},
	{[2]string{"UA", "DL"}, []string{"MTJ", "ROC", "ORD", "JFK"}},
	{[2]string{"UA", "DL"}, []string{"COS", "ROC"}},
	{[2]string{"AA", "WN"}, []string{"COS", "MFE", "SEA", "DEN"}},
	{[2]string{"UA", "WN"}, []string{"ROC", "ORD", "JFK", "DEN"}},
	{[2]string{"AA", "DL"}, []string{"MFE", "ROC"}},
}

func fig1Query(i int) query.Query {
	s := fig1Slices[i]
	return query.Query{
		Table:     "FlightData",
		Treatment: "Carrier",
		Outcomes:  []string{"Delayed"},
		Where: dataset.And{
			dataset.In{Attr: "Carrier", Values: s.carriers[:]},
			dataset.In{Attr: "Airport", Values: s.airports},
		},
	}
}

var flightOnce = sync.OnceValues(func() (*dataset.Table, error) { return datagen.Flight(12000, 1) })

// flightTable is the 101-column, 12000-row flight table of the benchmark.
func flightTable(t testing.TB) *dataset.Table {
	t.Helper()
	tab, err := flightOnce()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// fig1View returns the in-memory view of Fig 1 slice i with the candidate
// list Analyze passes to PrepareCandidates.
func fig1View(t testing.TB, i int) (view source.Relation, q query.Query, candidates []string) {
	t.Helper()
	rel := mem.New(flightTable(t))
	q = fig1Query(i)
	view, err := q.View(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	return view, q, candidateAttrs(rel, q)
}

// pairwisePrepare is the Sec 4 pre-pass without the entropy-gap bound: it
// tabulates the joint of every (candidate, treatment) and (candidate, kept)
// pair it reaches. PrepareCandidates must return exactly what it returns.
func pairwisePrepare(t *testing.T, h *scanEntropies, treatment string, candidates []string, cfg PrepareConfig) (kept []string, dropped []Dropped) {
	t.Helper()
	keyLike := map[string]bool{}
	if !cfg.SkipKeyDetection {
		var err error
		if keyLike, err = detectKeyAttributes(context.Background(), h.rel, candidates, cfg); err != nil {
			t.Fatal(err)
		}
	}
	eps := cfg.fdEpsilon()
	equivalent := func(a, b string) bool {
		hab := h.joint(a, b)
		return hab-h.single(a) <= eps && hab-h.single(b) <= eps
	}
	for _, x := range candidates {
		switch {
		case x == treatment:
		case keyLike[x]:
			dropped = append(dropped, Dropped{Attr: x, Reason: DropKeyLike})
		case equivalent(x, treatment):
			dropped = append(dropped, Dropped{Attr: x, Reason: DropFDWithTreatment, Peer: treatment})
		default:
			peer := ""
			for _, k := range kept {
				if equivalent(x, k) {
					peer = k
					break
				}
			}
			if peer == "" {
				kept = append(kept, x)
			} else {
				dropped = append(dropped, Dropped{Attr: x, Reason: DropFDPeer, Peer: peer})
			}
		}
	}
	return kept, dropped
}

// scanEntropies computes the pre-pass entropies straight from sparse
// counts: singles over the code-ordered histogram, joints over the sorted
// counts — the summation orders PrepareCandidates uses. Results are
// memoized by attribute list.
type scanEntropies struct {
	t    *testing.T
	rel  source.Relation
	n    int
	memo map[string]float64
}

func newScanEntropies(t *testing.T, rel source.Relation) *scanEntropies {
	t.Helper()
	n, err := rel.NumRows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return &scanEntropies{t: t, rel: rel, n: n, memo: map[string]float64{}}
}

func (h *scanEntropies) counts(attrs ...string) map[source.Key]int {
	h.t.Helper()
	counts, err := h.rel.Counts(context.Background(), attrs, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	return counts
}

func (h *scanEntropies) single(a string) float64 {
	h.t.Helper()
	if v, ok := h.memo[a]; ok {
		return v
	}
	card, err := source.Card(context.Background(), h.rel, a)
	if err != nil {
		h.t.Fatal(err)
	}
	dense := make([]int, card)
	for k, c := range h.counts(a) {
		dense[k.Field(0)] += c
	}
	h.memo[a] = stats.EntropyCounts(dense, h.n, stats.PlugIn)
	return h.memo[a]
}

func (h *scanEntropies) joint(a, b string) float64 {
	k := a + "\x00" + b
	if v, ok := h.memo[k]; ok {
		return v
	}
	h.memo[k] = stats.EntropyCountsMap(h.counts(a, b), h.n, stats.PlugIn)
	return h.memo[k]
}

// assertPruningMatches runs PrepareCandidates and the pairwise reference
// and requires identical kept and dropped lists.
func assertPruningMatches(t *testing.T, h *scanEntropies, treatment string, candidates []string, cfg PrepareConfig) {
	t.Helper()
	kept, dropped, err := PrepareCandidates(context.Background(), h.rel, treatment, candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantKept, wantDropped := pairwisePrepare(t, h, treatment, candidates, cfg)
	if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(dropped, wantDropped) {
		t.Errorf("treatment %s, eps %g:\npruned   kept %v dropped %+v\npairwise kept %v dropped %+v",
			treatment, cfg.FDEpsilon, kept, dropped, wantKept, wantDropped)
	}
}

// gapTable holds exact FDs (a relabelled copy, a coarsening), a near-FD
// and independent attributes whose entropies sit close to H(a), so the
// pairwise gaps land on both sides of any ε placed next to them. Column f
// has counts 1107, 834, 40, 373, 646 in code order; summed in that order
// its entropy comes out one ulp above the sorted-order sum its joint with
// the coarsening f_merge gets, the rounding the slack must absorb.
func gapTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	fCum := []int{1107, 1941, 1981, 2354, 3000}
	b := dataset.NewBuilder("t", "a", "a_copy", "a_merge", "a_noisy", "u", "v", "w", "f", "f_merge")
	weights := []float64{0.3, 0.25, 0.2, 0.15, 0.07, 0.03}
	draw := func() int {
		r, acc := rng.Float64(), 0.0
		for i, w := range weights {
			if acc += w; r < acc {
				return i
			}
		}
		return len(weights) - 1
	}
	for i := 0; i < 3000; i++ {
		a := draw()
		f := sort.SearchInts(fCum, i+1)
		noisy := a
		if rng.Intn(200) == 0 {
			noisy = (a + 1) % len(weights)
		}
		b.MustAdd(
			strconv.Itoa(rng.Intn(2)),
			strconv.Itoa(a),
			"c"+strconv.Itoa(5-a),
			strconv.Itoa(min(a, 4)),
			strconv.Itoa(noisy),
			strconv.Itoa(draw()),
			strconv.Itoa(rng.Intn(6)),
			strconv.Itoa(min(draw(), 3)),
			strconv.Itoa(f),
			strconv.Itoa(min(f, 3)),
		)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPrepareCandidatesPruningMatchesPairwise pins the entropy-gap bound to
// the unpruned pairwise scan: identical kept, dropped and Peer on the Fig 1
// slices, Adult, Staples, random DAGs, and a table whose pairwise gaps sit
// just inside and just outside FDEpsilon.
func TestPrepareCandidatesPruningMatchesPairwise(t *testing.T) {
	ctx := context.Background()
	t.Run("fig1", func(t *testing.T) {
		for i := range fig1Slices {
			view, q, candidates := fig1View(t, i)
			assertPruningMatches(t, newScanEntropies(t, view), q.Treatment, candidates, PrepareConfig{})
		}
	})
	t.Run("paper", func(t *testing.T) {
		adult, err := datagen.Adult(8000, 1)
		if err != nil {
			t.Fatal(err)
		}
		staples, err := datagen.Staples(20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			tab *dataset.Table
			q   query.Query
		}{{adult, datagen.AdultQuery()}, {staples, datagen.StaplesQuery()}} {
			rel := mem.New(c.tab)
			assertPruningMatches(t, newScanEntropies(t, rel), c.q.Treatment, candidateAttrs(rel, c.q), PrepareConfig{})
		}
	})
	t.Run("random", func(t *testing.T) {
		for _, spec := range []datagen.RandomSpec{
			{Nodes: 8, AvgDegree: 2.5, MinCard: 2, MaxCard: 2, Alpha: 0.35, Rows: 5000, Seed: 21},
			{Nodes: 10, AvgDegree: 3, MinCard: 2, MaxCard: 4, Alpha: 0.1, Rows: 5000, Seed: 3},
			{Nodes: 8, AvgDegree: 2.5, MinCard: 10, MaxCard: 10, Alpha: 0.35, Rows: 5000, Seed: 11},
		} {
			tab, _, err := datagen.Random(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := newScanEntropies(t, mem.New(tab))
			for _, tr := range tab.Columns() {
				assertPruningMatches(t, h, tr, tab.Columns(), PrepareConfig{SkipKeyDetection: true, FDEpsilon: 0.05})
			}
		}
	})
	t.Run("gap", func(t *testing.T) {
		tab := gapTable(t)
		rel := mem.New(tab)
		h := newScanEntropies(t, rel)
		if hf, hj := h.single("f"), h.joint("f", "f_merge"); hf <= hj {
			t.Fatalf("H(f) = %v is not above H(f, f_merge) = %v: the table lost its rounding case", hf, hj)
		}
		attrs := tab.Columns()
		// Thresholds around every pair's entropy gap and conditional
		// entropies: exactly on them, one ulp either side, and inside and
		// outside the slack band.
		var eps []float64
		for i, a := range attrs {
			for _, b := range attrs[i+1:] {
				ha, hb, hab := h.single(a), h.single(b), h.joint(a, b)
				for _, g := range []float64{math.Abs(ha - hb), max(hab-ha, hab-hb)} {
					eps = append(eps, g, math.Nextafter(g, 0), math.Nextafter(g, 1),
						g-fdGapSlack/2, g+fdGapSlack/2, g-2*fdGapSlack, g+2*fdGapSlack)
				}
			}
		}
		sort.Float64s(eps)
		for _, e := range slices.Compact(eps) {
			if e <= 0 {
				continue // zero selects DefaultFDEpsilon
			}
			for _, tr := range []string{"t", "a", "a_merge", "f_merge"} {
				assertPruningMatches(t, h, tr, attrs, PrepareConfig{SkipKeyDetection: true, FDEpsilon: e})
			}
		}
		// The table's planted ties are caught at the default threshold.
		kept, dropped, err := PrepareCandidates(ctx, rel, "t", attrs, PrepareConfig{SkipKeyDetection: true})
		if err != nil {
			t.Fatal(err)
		}
		want := []Dropped{{Attr: "a_copy", Reason: DropFDPeer, Peer: "a"}}
		if !containsStr(kept, "a") || len(dropped) == 0 || !reflect.DeepEqual(dropped[:1], want) {
			t.Errorf("kept %v, dropped %+v; want a kept and a_copy dropped as its peer", kept, dropped)
		}
	})
}

// pairCounter counts the two-attribute tabulations asked of a relation.
// It keeps the in-memory table capability, so key detection still samples
// rows.
type pairCounter struct {
	source.Relation
	pairs atomic.Int64
}

func (c *pairCounter) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if len(attrs) == 2 {
		c.pairs.Add(1)
	}
	return c.Relation.Counts(ctx, attrs, where)
}

func (c *pairCounter) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	if len(attrs) == 2 {
		c.pairs.Add(1)
	}
	return source.Dense(ctx, c.Relation, attrs, where, budget)
}

func (c *pairCounter) Table() *dataset.Table {
	if t, ok := c.Relation.(interface{ Table() *dataset.Table }); ok {
		return t.Table()
	}
	return nil
}

// TestPrepareCandidatesScanBudget pins the cost of the pre-pass on the
// 101-column Fig 1 slice: testing every (candidate, kept) pair took about
// 4,400 two-attribute tabulations; the entropy-gap bound leaves a few
// hundred.
func TestPrepareCandidatesScanBudget(t *testing.T) {
	view, q, candidates := fig1View(t, 0)
	rel := &pairCounter{Relation: view}
	kept, _, err := PrepareCandidates(context.Background(), rel, q.Treatment, candidates, PrepareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 500
	if got := rel.pairs.Load(); got > budget {
		t.Errorf("pre-pass over %d candidates issued %d pairwise tabulations, want at most %d", len(candidates), got, budget)
	} else {
		t.Logf("%d candidates, %d kept, %d pairwise tabulations", len(candidates), len(kept), got)
	}
}

// mapKeyEntropies is the key detector's sampling with map histograms: the
// reference keyEntropies must reproduce bit for bit on both sampling paths.
func mapKeyEntropies(t *testing.T, rel source.Relation, attrs []string, sizes []int, seed int64) [][]float64 {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	var tab *dataset.Table
	if m, ok := rel.(interface{ Table() *dataset.Table }); ok {
		tab = m.Table()
	}
	out := make([][]float64, len(attrs))
	for i, a := range attrs {
		var code func(int) int32
		var total int
		if tab != nil {
			col, err := tab.Column(a)
			if err != nil {
				t.Fatal(err)
			}
			code, total = col.Code, tab.NumRows()
		} else {
			counts, err := rel.Counts(ctx, []string{a}, nil)
			if err != nil {
				t.Fatal(err)
			}
			labels, err := rel.Labels(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			var cum []int
			for c := range labels {
				total += counts[dataset.EncodeKey(int32(c))]
				cum = append(cum, total)
			}
			code = func(i int) int32 { return int32(sort.SearchInts(cum, i+1)) }
		}
		for _, s := range sizes {
			counts := map[int32]int{}
			for j := 0; j < s; j++ {
				counts[code(rng.Intn(total))]++
			}
			out[i] = append(out[i], stats.EntropyCountsMap(counts, s, stats.PlugIn))
		}
	}
	return out
}

func sameFloats(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	})
}

// TestKeyEntropiesMatchMapReference pins the key detector's tally kernel:
// on the row path (mem) and the histogram path (counts-only) it draws the
// same codes and computes bit-identical entropies to map histograms, and
// both paths flag the same keys.
func TestKeyEntropiesMatchMapReference(t *testing.T) {
	ctx := context.Background()
	fig1, _, _ := fig1View(t, 0)
	for _, c := range []struct {
		name string
		rel  source.Relation
	}{
		{"prep", mem.New(prepTable(t, 2000))},
		{"fig1", fig1},
	} {
		n, err := c.rel.NumRows(ctx)
		if err != nil {
			t.Fatal(err)
		}
		attrs, sizes := c.rel.Attributes(), defaultKeySizes(n)
		var verdicts []map[string]bool
		for _, path := range []struct {
			name string
			rel  source.Relation
		}{{"rows", c.rel}, {"histogram", source.CountsOnly(c.rel)}} {
			got, err := keyEntropies(ctx, path.rel, attrs, sizes, 3)
			if err != nil {
				t.Fatal(err)
			}
			if want := mapKeyEntropies(t, path.rel, attrs, sizes, 3); !sameFloats(got, want) {
				t.Errorf("%s/%s: tally entropies differ from the map reference", c.name, path.name)
			}
			keys, err := detectKeyAttributes(ctx, path.rel, attrs, PrepareConfig{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, keys)
		}
		if !maps.Equal(verdicts[0], verdicts[1]) {
			t.Errorf("%s: row path flags %v, histogram path %v", c.name, verdicts[0], verdicts[1])
		}
		if c.name == "prep" && !maps.Equal(verdicts[0], map[string]bool{"id": true}) {
			t.Errorf("prep: keys %v, want only id", verdicts[0])
		}
	}
}

// overCounted reports more rows than its histograms hold, like a degraded
// sharded read or a SQL table that grew between COUNT(*) and GROUP BY.
type overCounted struct {
	source.Relation
	extra int
}

func (o overCounted) NumRows(ctx context.Context) (int, error) {
	n, err := o.Relation.NumRows(ctx)
	return n + o.extra, err
}

// TestKeyDetectorDrawsWithinHistogram is the regression test for phantom
// codes: the histogram sampler used to draw over NumRows, so every draw
// past the histogram's total landed on code Card(attr), a value the
// attribute does not have. Draws now stay within the histogram.
func TestKeyDetectorDrawsWithinHistogram(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("const", "id", "x")
	for i := 0; i < 2000; i++ {
		b.MustAdd("k", strconv.Itoa(i), strconv.Itoa(i%7))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	honest := source.CountsOnly(mem.New(tab))
	attrs, sizes := tab.Columns(), defaultKeySizes(tab.NumRows())
	want, err := keyEntropies(ctx, honest, attrs, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PrepareConfig{KeySampleSizes: sizes, Seed: 1}
	wantKeys, err := detectKeyAttributes(ctx, honest, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{1, 1000} {
		rel := overCounted{Relation: honest, extra: extra}
		got, err := keyEntropies(ctx, rel, attrs, sizes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, want) {
			t.Errorf("NumRows over-reported by %d: entropies %v, want %v", extra, got, want)
		}
		if slices.ContainsFunc(got[0], func(h float64) bool { return h != 0 }) {
			t.Errorf("NumRows over-reported by %d: single-valued attribute has entropies %v", extra, got[0])
		}
		keys, err := detectKeyAttributes(ctx, rel, attrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(keys, wantKeys) {
			t.Errorf("NumRows over-reported by %d: keys %v, want %v", extra, keys, wantKeys)
		}
	}
	// An empty histogram is skipped, not sampled.
	none, err := tab.SelectRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	empty := overCounted{Relation: source.CountsOnly(mem.New(none)), extra: 100}
	got, err := keyEntropies(ctx, empty, attrs, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(got, func(h []float64) bool { return h != nil }) {
		t.Errorf("empty histograms sampled: %v", got)
	}
}

// BenchmarkPrepareCandidates times the Sec 4 pre-pass (key detection plus
// the FD screen) on the 101-column Fig 1 slice. mem reuses one restricted
// view, which has no count cache; sqldb opens a fresh handle per iteration
// so every count is a round trip to the in-process SQL engine.
func BenchmarkPrepareCandidates(b *testing.B) {
	ctx := context.Background()
	tab := flightTable(b)
	q := datagen.FlightQuery()
	run := func(b *testing.B, open func(b *testing.B) (view source.Relation, done func())) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view, done := open(b)
			if _, _, err := PrepareCandidates(ctx, view, q.Treatment, candidateAttrs(view, q), PrepareConfig{}); err != nil {
				b.Fatal(err)
			}
			done()
		}
	}
	viewOf := func(b *testing.B, rel source.Relation) source.Relation {
		view, err := q.View(ctx, rel)
		if err != nil {
			b.Fatal(err)
		}
		return view
	}
	memView := viewOf(b, mem.New(tab))
	b.Run("mem", func(b *testing.B) {
		run(b, func(*testing.B) (source.Relation, func()) { return memView, func() {} })
	})
	const name = "bench_prepare_flight"
	memsql.Register(name, tab)
	b.Cleanup(func() { memsql.Unregister(name) })
	b.Run("sqldb", func(b *testing.B) {
		run(b, func(b *testing.B) (source.Relation, func()) {
			conn, err := memsql.Open("")
			if err != nil {
				b.Fatal(err)
			}
			rel, err := sqldb.Open(ctx, conn, name)
			if err != nil {
				b.Fatal(err)
			}
			return viewOf(b, rel), func() { rel.Close() }
		})
	})
}
