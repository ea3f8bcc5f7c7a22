package core

import (
	"cmp"
	"context"
	"hash/fnv"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/dag"
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
	kept, dropped, err := prepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"carrier_code", "airport", "airport_wac", "id"}, PrepareConfig{}, nil)
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
	kept, dropped, err := prepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"airport", "airport_wac"}, PrepareConfig{SkipKeyDetection: true}, nil)
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
	kept, dropped, err := prepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"id", "airport"}, PrepareConfig{}, nil)
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
	kept, _, err := prepareCandidates(context.Background(), mem.New(tab), "carrier",
		[]string{"carrier", "airport"}, PrepareConfig{SkipKeyDetection: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(kept, "carrier") {
		t.Error("treatment kept as its own candidate")
	}
	if _, _, err := prepareCandidates(context.Background(), mem.New(tab), "missing", []string{"airport"}, PrepareConfig{}, nil); err == nil {
		t.Error("missing treatment accepted")
	}
	if _, _, err := prepareCandidates(context.Background(), mem.New(tab), "carrier", []string{"missing"}, PrepareConfig{SkipKeyDetection: true}, nil); err == nil {
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
	keys, err := detectKeyAttributes(context.Background(), mem.New(tab), []string{"x"}, PrepareConfig{}, nil)
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
// list Analyze passes to prepareCandidates.
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

// pairwisePrepare is the Sec 4 pre-pass without its bounds: it draws every
// key subsample (referenceKeys) and tabulates the joint of every
// (candidate, treatment) and (candidate, kept) pair it reaches.
// prepareCandidates must return exactly what it returns.
func pairwisePrepare(t *testing.T, h *scanEntropies, treatment string, candidates []string, cfg PrepareConfig) (kept []string, dropped []Dropped) {
	t.Helper()
	keyLike := map[string]bool{}
	if !cfg.SkipKeyDetection {
		keyLike = referenceKeys(t, h.rel, candidates, cfg)
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

// referenceKeys is the key test without the slope bound: it draws every
// subsample of every attribute and runs the regression itself.
func referenceKeys(t *testing.T, rel source.Relation, attrs []string, cfg PrepareConfig) map[string]bool {
	t.Helper()
	n, err := rel.NumRows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sizes := cfg.KeySampleSizes
	if len(sizes) == 0 {
		sizes = defaultKeySizes(n)
	}
	keys := map[string]bool{}
	if len(sizes) < 2 {
		return keys
	}
	slope, r2 := cmp.Or(cfg.KeySlope, DefaultKeySlope), cmp.Or(cfg.KeyR2, DefaultKeyR2)
	entropies, err := keyEntropies(context.Background(), rel, attrs, sizes, cfg.Seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var x []float64
	for _, s := range sizes {
		x = append(x, math.Log(float64(s)))
	}
	for i, a := range attrs {
		if entropies[i] == nil {
			continue
		}
		if _, b, fit, err := stats.LinearRegression(x, entropies[i]); err == nil && b >= slope && fit >= r2 {
			keys[a] = true
		}
	}
	return keys
}

// scanEntropies computes the pre-pass entropies straight from sparse
// counts: singles over the code-ordered histogram, joints over the sorted
// counts — the summation orders prepareCandidates uses. Results are
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

// assertPruningMatches runs prepareCandidates and the pairwise reference
// and requires identical kept and dropped lists.
func assertPruningMatches(t *testing.T, h *scanEntropies, treatment string, candidates []string, cfg PrepareConfig) {
	t.Helper()
	kept, dropped, err := prepareCandidates(context.Background(), h.rel, treatment, candidates, cfg, nil)
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
		kept, dropped, err := prepareCandidates(ctx, rel, "t", attrs, PrepareConfig{SkipKeyDetection: true}, nil)
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

// TestFlightLogicalDependenciesAreDropped runs the Sec 4 preparation on
// FlightData and verifies the planted FDs and keys are all caught.
func TestFlightLogicalDependenciesAreDropped(t *testing.T) {
	tab, err := datagen.Flight(20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	candidates := []string{"FlightID", "FlightNum", "TailNum", "CarrierCode",
		"Airport", "AirportWAC", "AirportCity", "Year", "Month"}
	kept, dropped, err := prepareCandidates(context.Background(), mem.New(tab), "Carrier", candidates, PrepareConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDropped := []string{"FlightID", "FlightNum", "TailNum", "CarrierCode", "AirportWAC", "AirportCity"}
	droppedSet := map[string]bool{}
	for _, d := range dropped {
		droppedSet[d.Attr] = true
	}
	for _, w := range wantDropped {
		if !droppedSet[w] {
			t.Errorf("%s not dropped (dropped: %v)", w, dropped)
		}
	}
	for _, k := range []string{"Airport", "Year", "Month"} {
		found := false
		for _, x := range kept {
			if x == k {
				found = true
			}
		}
		if !found {
			t.Errorf("genuine attribute %s wrongly dropped", k)
		}
	}
}

// TestPrepareCandidatesScanBudget pins the cost of the pre-pass on the
// 101-column Fig 1 slice. Testing every (candidate, kept) pair took about
// 4,400 two-attribute tabulations. The entropy-gap bound leaves a few
// hundred, which is the budget without row access; with the rows in memory
// the row-prefix bound rules out all but a handful.
func TestPrepareCandidatesScanBudget(t *testing.T) {
	view, q, candidates := fig1View(t, 0)
	for _, c := range []struct {
		name   string
		rel    source.Relation
		budget int64
	}{
		{"rows", view, 3},
		{"counts-only", source.CountsOnly(view), 500},
	} {
		rel := &pairCounter{Relation: c.rel}
		kept, _, err := prepareCandidates(context.Background(), rel, q.Treatment, candidates, PrepareConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.pairs.Load(); got > c.budget {
			t.Errorf("%s: pre-pass over %d candidates issued %d pairwise tabulations, want at most %d", c.name, len(candidates), got, c.budget)
		} else {
			t.Logf("%s: %d candidates, %d kept, %d pairwise tabulations", c.name, len(candidates), len(kept), got)
		}
	}
}

// lateTieTable holds a tie that only rows past the FD screen's prefix can
// confirm: its first constRows rows all have a = 0, the most common value,
// and a_copy relabels a. a_merge coarsens a, a_noisy flips one row in 40,
// u and v are independent draws of a's distribution, and t is a fair coin.
func lateTieTable(t *testing.T, n, constRows int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
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
	b := dataset.NewBuilder("t", "a", "a_copy", "a_merge", "a_noisy", "u", "v")
	for i := range n {
		a := 0
		if i >= constRows {
			a = draw()
		}
		noisy := a
		if rng.Intn(40) == 0 {
			noisy = (a + 1) % len(weights)
		}
		b.MustAdd(strconv.Itoa(rng.Intn(2)), strconv.Itoa(a), "c"+strconv.Itoa(5-a),
			strconv.Itoa(min(a, 4)), strconv.Itoa(noisy), strconv.Itoa(draw()), strconv.Itoa(draw()))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPrepareCandidatesBoundsExact pins the key detector's slope bound and
// the FD screen's row-prefix bound to the unbounded reference, on both
// sampling paths: the Fig 1 slices over seeds 1-20, the near-threshold key
// column over its 200 seeds, and tables whose ties only rows past the
// prefix confirm, including ones no longer than two prefixes.
func TestPrepareCandidatesBoundsExact(t *testing.T) {
	ctx := context.Background()
	paths := func(rel source.Relation) []source.Relation { return []source.Relation{rel, source.CountsOnly(rel)} }
	t.Run("fig1", func(t *testing.T) {
		for i := range fig1Slices {
			view, q, candidates := fig1View(t, i)
			for _, rel := range paths(view) {
				h := newScanEntropies(t, rel)
				for seed := int64(1); seed <= 20; seed++ {
					assertPruningMatches(t, h, q.Treatment, candidates, PrepareConfig{Seed: seed})
				}
			}
		}
	})
	t.Run("near threshold", func(t *testing.T) {
		tab := nearThresholdTable(t)
		for _, rel := range paths(mem.New(tab)) {
			flagged := 0
			for seed := range int64(200) {
				cfg := PrepareConfig{Seed: seed}
				got, err := detectKeyAttributes(ctx, rel, tab.Columns(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceKeys(t, rel, tab.Columns(), cfg); !maps.Equal(got, want) {
					t.Errorf("seed %d: keys %v, reference %v", seed, got, want)
				}
				if got["x"] {
					flagged++
				}
			}
			if flagged == 0 || flagged == 200 {
				t.Errorf("x flagged on %d of 200 seeds: the column no longer sits near the threshold", flagged)
			}
		}
	})
	t.Run("late ties", func(t *testing.T) {
		for _, c := range []struct{ n, constRows int }{
			{3000, fdPrefixRows}, {2 * fdPrefixRows, fdPrefixRows}, {400, fdPrefixRows}, {200, 100},
		} {
			tab := lateTieTable(t, c.n, c.constRows)
			attrs := tab.Columns()
			for _, rel := range paths(mem.New(tab)) {
				h := newScanEntropies(t, rel)
				if ha, hr := h.single("a"), restEntropy(t, tab, "a", min(fdPrefixRows, c.n)); c.n > fdPrefixRows && hr <= ha+DefaultFDEpsilon {
					t.Fatalf("n %d: H(a) over the rows past the prefix is %v, not above H(a) = %v + ε", c.n, hr, ha)
				}
				for _, eps := range []float64{0, 0.001, 0.05, 0.2, 0.5} {
					for _, tr := range []string{"t", "a", "a_merge"} {
						assertPruningMatches(t, h, tr, attrs, PrepareConfig{FDEpsilon: eps})
					}
				}
				_, dropped, err := prepareCandidates(ctx, rel, "t", attrs, PrepareConfig{SkipKeyDetection: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := (Dropped{Attr: "a_copy", Reason: DropFDPeer, Peer: "a"}); !slices.Contains(dropped, want) {
					t.Errorf("n %d: dropped %+v, want %+v", c.n, dropped, want)
				}
			}
		}
	})
}

// restEntropy is the plug-in entropy of attr over the rows of tab past the
// first m.
func restEntropy(t *testing.T, tab *dataset.Table, attr string, m int) float64 {
	t.Helper()
	col, err := tab.Column(attr)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, col.Card())
	for _, c := range col.Codes()[m:] {
		counts[c]++
	}
	return stats.EntropyCounts(counts, tab.NumRows()-m, stats.PlugIn)
}

// TestKeyMemoKeepsThresholdsApart runs screens with different KeySlope on
// one count-cache view, in both orders: each gives the verdicts it gives on
// a bare relation, though the view's memo holds the other screen's
// entropies, cut short at its own threshold.
func TestKeyMemoKeepsThresholdsApart(t *testing.T) {
	ctx := context.Background()
	tab := nearThresholdTable(t)
	attrs := tab.Columns()
	slopes := []float64{0.1, 0.25, 0.6}
	for _, rel := range []source.Relation{mem.New(tab), source.CountsOnly(mem.New(tab))} {
		want := map[float64][]Dropped{}
		for _, slope := range slopes {
			_, dropped, err := prepareCandidates(ctx, rel, "pre", attrs, PrepareConfig{KeySlope: slope, Seed: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[slope] = dropped
		}
		if reflect.DeepEqual(want[0.1], want[0.6]) {
			t.Fatalf("KeySlope 0.1 and 0.6 both drop %+v: the test cannot tell them apart", want[0.1])
		}
		for _, order := range [][]float64{slopes, {0.6, 0.25, 0.1}} {
			view := countcache.Wrap(rel, 0)
			for _, slope := range order {
				_, dropped, err := prepareCandidates(ctx, view, "pre", attrs, PrepareConfig{KeySlope: slope, Seed: 2}, view.Memo())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dropped, want[slope]) {
					t.Errorf("order %v, KeySlope %g: dropped %+v on the view, %+v bare", order, slope, dropped, want[slope])
				}
			}
		}
	}
}

// mapKeyEntropies is the key detector's sampling with map histograms: the
// reference keyEntropies must reproduce bit for bit on both sampling paths.
// Each attribute draws from a PCG seeded from seed and the FNV-1a hash of
// its name.
func mapKeyEntropies(t *testing.T, rel source.Relation, attrs []string, sizes []int, seed int64) [][]float64 {
	t.Helper()
	ctx := context.Background()
	var tab *dataset.Table
	if m, ok := rel.(interface{ Table() *dataset.Table }); ok {
		tab = m.Table()
	}
	out := make([][]float64, len(attrs))
	for i, a := range attrs {
		h := fnv.New64a()
		h.Write([]byte(a))
		rng := randv2.New(randv2.NewPCG(uint64(seed^0x6b657973), h.Sum64()))
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
				counts[code(rng.IntN(total))]++
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
			got, err := keyEntropies(ctx, path.rel, attrs, sizes, 3, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := mapKeyEntropies(t, path.rel, attrs, sizes, 3); !sameFloats(got, want) {
				t.Errorf("%s/%s: tally entropies differ from the map reference", c.name, path.name)
			}
			keys, err := detectKeyAttributes(ctx, path.rel, attrs, PrepareConfig{Seed: 3}, nil)
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

// TestKeySamplerGuideMatchesSearch pins the histogram sampler's guide
// table: every draw maps to the code a binary search over the cumulative
// histogram finds, and the guide has the documented layout (shift =
// bits.Len(total/card), guide[b] the code of draw b<<shift, at most card
// buckets).
func TestKeySamplerGuideMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := map[string][]int{
		"card 1":          {7},
		"card 1 total 1":  {1},
		"total < card":    {0, 1, 0, 0, 2, 0, 0, 0, 1, 0},
		"leading zeros":   {0, 0, 3, 5},
		"trailing zeros":  {3, 5, 0, 0},
		"dominant":        {1, 997, 1, 0, 1},
		"aligned buckets": {4, 4, 4, 4},
		"power of two":    {8, 0, 8, 16},
		"odd total":       {3, 5, 7, 11, 13},
		"one per code":    {1, 1, 1, 1, 1, 1, 1},
	}
	for i := range 200 {
		counts := make([]int, 1+rng.Intn(40))
		for c := range counts {
			switch rng.Intn(4) {
			case 0: // zero-count code
			case 1:
				counts[c] = 1 << rng.Intn(6)
			default:
				counts[c] = rng.Intn(50)
			}
		}
		if rng.Intn(5) == 0 {
			counts[rng.Intn(len(counts))] += 5000
		}
		cases["random "+strconv.Itoa(i)] = counts
	}
	for name, counts := range cases {
		total := 0
		cum := make([]int, len(counts))
		for c, n := range counts {
			total += n
			cum[c] = total
		}
		if total == 0 {
			continue
		}
		s := histSampler(slices.Clone(counts), total)
		if want := uint(bits.Len(uint(total / len(counts)))); s.shift != want {
			t.Errorf("%s: shift %d, want %d", name, s.shift, want)
		}
		if want := (total-1)>>s.shift + 1; len(s.guide) != want || len(s.guide) > len(counts) {
			t.Errorf("%s: %d buckets, want %d (card %d)", name, len(s.guide), want, len(counts))
		}
		for b, c := range s.guide {
			if want := sort.SearchInts(cum, b<<s.shift+1); int(c) != want {
				t.Errorf("%s: guide[%d] = %d, want %d", name, b, c, want)
			}
		}
		for i := range total {
			if got, want := s.lookup(i), sort.SearchInts(cum, i+1); int(got) != want {
				t.Fatalf("%s: draw %d maps to code %d, want %d", name, i, got, want)
			}
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
	want, err := keyEntropies(ctx, honest, attrs, sizes, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PrepareConfig{KeySampleSizes: sizes, Seed: 1}
	wantKeys, err := detectKeyAttributes(ctx, honest, attrs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{1, 1000} {
		rel := overCounted{Relation: honest, extra: extra}
		got, err := keyEntropies(ctx, rel, attrs, sizes, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, want) {
			t.Errorf("NumRows over-reported by %d: entropies %v, want %v", extra, got, want)
		}
		if slices.ContainsFunc(got[0], func(h float64) bool { return h != 0 }) {
			t.Errorf("NumRows over-reported by %d: single-valued attribute has entropies %v", extra, got[0])
		}
		keys, err := detectKeyAttributes(ctx, rel, attrs, cfg, nil)
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
	got, err := keyEntropies(ctx, empty, attrs, sizes, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(got, func(h []float64) bool { return h != nil }) {
		t.Errorf("empty histograms sampled: %v", got)
	}
}

// TestKeyVerdictIndependentOfCandidates is the regression test for the
// shared sampling stream: x's draws used to follow pre's, so x's entropies
// and verdict changed with the candidate list. x has 250 values over 3,000
// rows, which puts its slope near the threshold: the verdict flipped on 89
// of 200 seeds. Each attribute now draws from its own stream, on both
// sampling paths. Screens running concurrently over one count-cache view
// share its memo and read back exactly the bare relation's entropies.
func TestKeyVerdictIndependentOfCandidates(t *testing.T) {
	ctx := context.Background()
	tab := nearThresholdTable(t)
	sizes := defaultKeySizes(tab.NumRows())
	const seeds = 200
	for _, path := range []struct {
		name string
		rel  source.Relation
	}{{"rows", mem.New(tab)}, {"histogram", source.CountsOnly(mem.New(tab))}} {
		t.Run(path.name, func(t *testing.T) {
			cached := countcache.Wrap(path.rel, 0)
			var wg sync.WaitGroup
			for seed := range int64(seeds) {
				alone, err := keyEntropies(ctx, path.rel, []string{"x"}, sizes, seed, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				withPre, err := keyEntropies(ctx, path.rel, []string{"pre", "x"}, sizes, seed, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(alone, withPre[1:]) {
					t.Errorf("seed %d: x's entropies %v alone, %v after pre", seed, alone[0], withPre[1])
				}
				cfg := PrepareConfig{Seed: seed}
				keysAlone, err := detectKeyAttributes(ctx, path.rel, []string{"x"}, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				keysWithPre, err := detectKeyAttributes(ctx, path.rel, []string{"pre", "x"}, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if keysAlone["x"] != keysWithPre["x"] {
					t.Errorf("seed %d: x key-like %t alone, %t after pre", seed, keysAlone["x"], keysWithPre["x"])
				}
				for _, attrs := range [][]string{{"x"}, {"pre", "x"}} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := keyEntropies(ctx, cached, attrs, sizes, seed, 0, cached.Memo())
						if err != nil {
							t.Error(err)
							return
						}
						if !sameFloats(got[len(got)-1:], alone) {
							t.Errorf("seed %d, %v: memoized x entropies %v, bare %v", seed, attrs, got[len(got)-1], alone[0])
						}
					}()
				}
			}
			wg.Wait()
			st := cached.Stats()
			if st.KeyHits+st.KeyMisses != 3*seeds || st.MemoEntries != 2*seeds || st.MemoHits+st.MemoMisses != 0 {
				t.Errorf("memo stats %+v; want %d key lookups, %d entries, no test lookups", st, 3*seeds, 2*seeds)
			}
		})
	}
}

// nearThresholdTable has 3,000 rows of pre, with 3 values, and x, with 250:
// x's key-detector slope sits near DefaultKeySlope.
func nearThresholdTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	b := dataset.NewBuilder("pre", "x")
	for i := 0; i < 3000; i++ {
		b.MustAdd(strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(250)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// BenchmarkPrepareCandidates times the Sec 4 pre-pass (key detection plus
// the FD screen). mem and sqldb screen the 101-column Fig 1 slice on bare
// relations, with no memo: mem reuses one restricted view, sqldb opens a
// fresh handle per iteration so every count is a round trip to the
// in-process SQL engine. session screens every attribute of the audit
// benchmark's 10-attribute net as treatment on one fresh count-cache
// wrapped sqldb handle per iteration, as an audit sweep's per-outcome
// mediator screens do, so the view's memo serves repeated key detection.
func BenchmarkPrepareCandidates(b *testing.B) {
	ctx := context.Background()
	tab := flightTable(b)
	q := datagen.FlightQuery()
	run := func(b *testing.B, open func(b *testing.B) (view source.Relation, done func())) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view, done := open(b)
			if _, _, err := prepareCandidates(ctx, view, q.Treatment, candidateAttrs(view, q), PrepareConfig{}, nil); err != nil {
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

	const netName = "bench_prepare_net"
	memsql.Register(netName, auditNet(b))
	b.Cleanup(func() { memsql.Unregister(netName) })
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conn, err := memsql.Open("")
			if err != nil {
				b.Fatal(err)
			}
			rel, err := sqldb.Open(ctx, conn, netName)
			if err != nil {
				b.Fatal(err)
			}
			view := countcache.Wrap(rel, 0)
			attrs := view.Attributes()
			for _, y := range attrs {
				if _, _, err := (Config{}).prepare(ctx, view, y, excludeStr(attrs, y)); err != nil {
					b.Fatal(err)
				}
			}
			rel.Close()
		}
	})
}

// auditNet samples 7,000 rows of the audit benchmark's Bayes net: 10
// nodes of cardinality 2-4, average degree 2.5, structure and CPTs from
// seed 21.
func auditNet(tb testing.TB) *dataset.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(21))
	g, err := dag.RandomDAGAvgDegree(rng, 10, 2.5)
	if err != nil {
		tb.Fatal(err)
	}
	bn, err := dag.RandomBayesNet(rng, g, 2, 4, 0.35)
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(1)), 7000)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}
