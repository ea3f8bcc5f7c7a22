package independence

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/internal/stats"
	"hypdb/source"
	"hypdb/source/mem"
)

// providerData builds five correlated attributes: A..D form the closure the
// tests prime, E stays outside it.
func providerData(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(40))
	b := dataset.NewBuilder("A", "B", "C", "D", "E")
	for i := 0; i < 1500; i++ {
		a := rng.Intn(3)
		bv := (a + rng.Intn(2)) % 3
		c := rng.Intn(2)
		d := (bv + c + rng.Intn(2)) % 4
		e := (a + rng.Intn(3)) % 3
		b.MustAdd(strconv.Itoa(a), strconv.Itoa(bv), strconv.Itoa(c), strconv.Itoa(d), strconv.Itoa(e))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// providerClosure is the attribute set the tests prime: 3·3·2·4 = 72 cells.
var providerClosure = []string{"A", "B", "C", "D"}

type triple struct {
	x, y string
	z    []string
}

// closureTriples lie inside providerClosure; outsideTriples reach E.
var (
	closureTriples = []triple{{"A", "B", nil}, {"A", "D", []string{"B", "C"}}, {"D", "C", []string{"A"}}}
	outsideTriples = []triple{{"E", "B", []string{"C"}}, {"A", "E", nil}}
)

// subsets lists every subset of attrs, the empty set included.
func subsets(attrs []string) [][]string {
	var sets [][]string
	for mask := 0; mask < 1<<len(attrs); mask++ {
		var s []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				s = append(s, a)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// primedCache wraps tab in a count cache primed with attrs and checks that
// priming took exactly one backend round trip.
func primedCache(t *testing.T, ctx context.Context, tab *dataset.Table, attrs []string) *countcache.Relation {
	t.Helper()
	cc := countcache.Wrap(mem.New(tab), 0)
	if err := cc.Prime(ctx, attrs, 0); err != nil {
		t.Fatal(err)
	}
	if got := cc.Stats().Fetches; got != 1 {
		t.Fatalf("Prime(%v) made %d fetches, want 1", attrs, got)
	}
	return cc
}

// checkEntropies asserts that p returns, twice over (the second pass is
// served by the memo, if on), the entropy and distinct count a scan of tab
// gives for every set.
func checkEntropies(t *testing.T, ctx context.Context, name string, p *Provider, tab *dataset.Table, sets [][]string, est stats.Estimator) {
	t.Helper()
	for _, s := range sets {
		wantH, wantD := 0.0, 1
		if len(s) > 0 {
			dc, err := tab.Tabulate(nil, 0, s...)
			if err != nil {
				t.Fatal(err)
			}
			counts := dc.Map()
			wantH, wantD = stats.EntropyCountsMap(counts, tab.NumRows(), est), len(counts)
		}
		for pass := 0; pass < 2; pass++ {
			h, err := p.JointEntropy(ctx, s)
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			d, err := p.DistinctCount(ctx, s)
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			if h != wantH || d != wantD {
				t.Errorf("%s %v: (H, distinct) = (%v, %d), scan gives (%v, %d)", name, s, h, d, wantH, wantD)
			}
		}
	}
}

// checkChiSquare asserts that χ² through p on rel returns exactly what χ²
// over a scan of tab returns.
func checkChiSquare(t *testing.T, ctx context.Context, name string, p *Provider, rel source.Relation, tab *dataset.Table, triples []triple, est stats.Estimator) {
	t.Helper()
	for _, tr := range triples {
		want, err := ChiSquare{Est: est}.Test(ctx, mem.New(tab), tr.x, tr.y, tr.z)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChiSquare{Provider: p, Est: est}.Test(ctx, rel, tr.x, tr.y, tr.z)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s χ²(%s,%s|%v) = %+v, scan gives %+v", name, tr.x, tr.y, tr.z, got, want)
		}
	}
}

// TestProviderMatchesScan: however its relation obtains counts — a bare
// backend, a count cache primed with the closure, or a cache too small to
// prime it (subsets then fall back to per-set and sparse counting) — and
// with or without the entropy cache, the provider returns bit-identical
// entropies, distinct counts and χ² results to a scan of the table. This
// covers every subset of the closure, sets outside it, and reordered
// requests.
func TestProviderMatchesScan(t *testing.T) {
	ctx := context.Background()
	tab := providerData(t)
	est := stats.MillerMadow

	sets := append(subsets(providerClosure),
		[]string{"E"}, []string{"A", "E"}, []string{"E", "D", "B"}, // outside the closure
		[]string{"C", "A"}, []string{"D", "B", "A"}, []string{"D", "C", "B", "A"}, // reordered
	)
	triples := append(append([]triple(nil), closureTriples...), outsideTriples...)

	relations := []struct {
		name      string
		rel       func() source.Relation
		wantFetch int // backend round trips Prime makes for the closure
	}{
		{"mem", func() source.Relation { return mem.New(tab) }, -1},
		{"primed", func() source.Relation { return countcache.Wrap(mem.New(tab), 0) }, 1},
		{"over-budget", func() source.Relation { return countcache.Wrap(mem.New(tab), 16) }, 0},
	}
	for _, r := range relations {
		for _, memo := range []bool{false, true} {
			name := r.name + " memo=" + strconv.FormatBool(memo)
			rel := r.rel()
			if cc, ok := rel.(*countcache.Relation); ok {
				if err := cc.Prime(ctx, providerClosure, 0); err != nil {
					t.Fatal(err)
				}
				if got := cc.Stats().Fetches; got != r.wantFetch {
					t.Fatalf("%s: Prime made %d fetches, want %d", r.name, got, r.wantFetch)
				}
			}
			var m *countcache.Memo
			if memo {
				m = countcache.NewMemo()
			}
			p, err := NewProvider(ctx, rel, est, m)
			if err != nil {
				t.Fatal(err)
			}
			if p.NumRows() != tab.NumRows() {
				t.Errorf("%s: NumRows = %d, want %d", name, p.NumRows(), tab.NumRows())
			}
			checkEntropies(t, ctx, name, p, tab, sets, est)
			if memo {
				if hits, _ := entropyTally(p); hits == 0 {
					t.Errorf("%s: no memo hits", name)
				}
			}
			checkChiSquare(t, ctx, name, p, rel, tab, triples, est)
		}
	}
}

// TestMaterializedProviderMatchesScan: materializing a phase's contingency
// tables is priming the count cache with its closure. After that one round
// trip every subset of the closure, in any order, is a client-side marginal
// of the primed view, bit-identical to a scan.
func TestMaterializedProviderMatchesScan(t *testing.T) {
	ctx := context.Background()
	tab := providerData(t)
	est := stats.MillerMadow
	cc := primedCache(t, ctx, tab, providerClosure)
	p, err := NewProvider(ctx, cc, est, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := append(subsets(providerClosure), []string{"D", "A"}, []string{"C", "B", "A"})
	checkEntropies(t, ctx, "primed", p, tab, sets, est)
	if got := cc.Stats().Fetches; got != 1 {
		t.Errorf("subsets of the primed closure made %d more backend fetches, want 0", got-1)
	}
	if p.NumRows() != tab.NumRows() {
		t.Errorf("NumRows = %d, want %d", p.NumRows(), tab.NumRows())
	}
}

// TestMaterializedProviderCoverage: a set the primed closure does not cover
// is no error — the count cache fetches it from the backend — and the empty
// set keeps its conventions (H = 0, one distinct value) without a fetch.
func TestMaterializedProviderCoverage(t *testing.T) {
	ctx := context.Background()
	tab := providerData(t)
	est := stats.PlugIn
	cc := primedCache(t, ctx, tab, []string{"A", "B"})
	p, err := NewProvider(ctx, cc, est, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkEntropies(t, ctx, "empty", p, tab, [][]string{nil}, est)
	if got := cc.Stats().Fetches; got != 1 {
		t.Errorf("the empty set made %d backend fetches, want 0", got-1)
	}
	checkEntropies(t, ctx, "uncovered", p, tab, [][]string{{"C"}, {"A", "E"}, {"E", "D", "B"}}, est)
	if got := cc.Stats().Fetches; got == 1 {
		t.Error("sets outside the primed closure were answered without a backend fetch")
	}
}

// TestChiSquareWithMaterializedProvider: χ² tests inside a primed closure
// match a scan exactly and make no backend round trip beyond the prime.
func TestChiSquareWithMaterializedProvider(t *testing.T) {
	ctx := context.Background()
	tab := providerData(t)
	est := stats.MillerMadow
	cc := primedCache(t, ctx, tab, providerClosure)
	p, err := NewProvider(ctx, cc, est, cc.Memo())
	if err != nil {
		t.Fatal(err)
	}
	checkChiSquare(t, ctx, "primed", p, cc, tab, closureTriples, est)
	if got := cc.Stats().Fetches; got != 1 {
		t.Errorf("χ² inside the primed closure made %d more backend fetches, want 0", got-1)
	}
}

// TestChiSquareWithCubeProvider: a pre-computed data cube is a count cache
// primed with every attribute. χ² tests over any attributes then match a
// scan exactly with no backend round trip beyond the prime.
func TestChiSquareWithCubeProvider(t *testing.T) {
	ctx := context.Background()
	tab := providerData(t)
	est := stats.MillerMadow
	cc := primedCache(t, ctx, tab, tab.Columns())
	p, err := NewProvider(ctx, cc, est, cc.Memo())
	if err != nil {
		t.Fatal(err)
	}
	checkChiSquare(t, ctx, "cube", p, cc, tab, append(append([]triple(nil), closureTriples...), outsideTriples...), est)
	if got := cc.Stats().Fetches; got != 1 {
		t.Errorf("χ² over the cube made %d more backend fetches, want 0", got-1)
	}
}

// TestEntropyKeyInjective: an attribute named by joining two others with a
// NUL byte is a set of its own. Caching its entropy first must not answer
// for the pair, on a bare backend or on a count-cache view: the cached
// provider returns what an uncached one does, for the entropies and for a
// χ² test of the pair.
func TestEntropyKeyInjective(t *testing.T) {
	ctx := context.Background()
	b := dataset.NewBuilder("a", "b", "a\x00b")
	for i := 0; i < 400; i++ {
		b.MustAdd(strconv.Itoa(i%2), strconv.Itoa(i/2%2), "c")
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		rel  source.Relation
	}{{"mem", mem.New(tab)}, {"countcache", countcache.Wrap(mem.New(tab), 0)}} {
		est := stats.PlugIn
		p := cachedProv(t, r.rel, est)
		var fresh *Provider
		if fresh, err = fresh.over(ctx, r.rel, est); err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]string{{"a\x00b"}, {"a", "b"}} {
			got, err := p.JointEntropy(ctx, set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.JointEntropy(ctx, set)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: cached H(%q) = %v, uncached %v", r.name, set, got, want)
			}
		}
		got, err := ChiSquare{Provider: p, Est: est}.Test(ctx, r.rel, "a", "b", nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ChiSquare{Est: est}.Test(ctx, r.rel, "a", "b", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: χ²(a, b) with the cached provider = %+v, uncached %+v", r.name, got, want)
		}
	}
}
