// Package core implements HypDB itself — the paper's primary contribution:
// automatic covariate discovery (the CD algorithm, Alg 1), detection of
// biased OLAP queries (Def 3.1), coarse- and fine-grained explanations
// (Defs 3.3/3.4, Alg 3), logical-dependency dropping (Sec 4), and the
// end-to-end Analyze pipeline that detects, explains and resolves bias at
// query time.
//
// The pipeline consumes a source.Relation — the storage contract — and
// computes its sufficient statistics from dictionary-coded group-by counts,
// so it runs unchanged over the in-memory backend and over SQL databases
// with count pushdown. The only row-level dependency is the subsampling key
// detector, which uses the backend's Materializer capability when present
// and falls back to histogram resampling on counts-only relations.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/stats"
	"hypdb/source"
)

// DropReason explains why an attribute was excluded from causal analysis.
type DropReason string

const (
	// DropFDWithTreatment marks attributes in an (approximate) 1-1
	// functional dependency with the treatment: H(T|X) ≈ 0 and H(X|T) ≈ 0.
	// Conditioning on such attributes isolates the treatment from the rest
	// of the DAG (Sec 4).
	DropFDWithTreatment DropReason = "functional dependency with treatment"
	// DropFDPeer marks attributes (approximately) 1-1 with another kept
	// candidate, e.g. AirportWAC vs Airport; only one of the pair is kept.
	DropFDPeer DropReason = "functional dependency with another attribute"
	// DropKeyLike marks high-entropy attributes whose entropy is determined
	// by the sample size (IDs, flight numbers, tail numbers): detected by
	// regressing subsample entropy on log sample size (Sec 4).
	DropKeyLike DropReason = "key-like attribute (entropy grows with sample size)"
)

// Dropped records one excluded attribute.
type Dropped struct {
	Attr   string     `json:"attr"`
	Reason DropReason `json:"reason"`
	// Peer names the attribute the FD relates to (FD drops only).
	Peer string `json:"peer,omitempty"`
}

// PrepareConfig controls logical-dependency dropping.
type PrepareConfig struct {
	// FDEpsilon is the conditional-entropy threshold (in nats) below which
	// a dependency counts as functional; zero means DefaultFDEpsilon.
	FDEpsilon float64
	// KeySampleSizes are the subsample sizes used by the key detector;
	// empty means a geometric ladder up to the table size.
	KeySampleSizes []int
	// KeySlope is the minimum entropy-vs-ln(size) slope marking a key-like
	// attribute; zero means DefaultKeySlope.
	KeySlope float64
	// KeyR2 is the minimum fit quality for the slope test; zero means
	// DefaultKeyR2.
	KeyR2 float64
	// Seed drives subsampling. Each attribute draws from its own stream,
	// seeded from Seed and the attribute's name, so its key verdict depends
	// on the data, the attribute, KeySampleSizes and Seed alone — not on
	// the other candidates or their order.
	Seed int64
	// SkipKeyDetection disables the (sampling-based) key detector.
	SkipKeyDetection bool
}

// Defaults for PrepareConfig. A perfect key has slope 1 with R² = 1;
// high-cardinality key-like attributes (flight numbers, tail numbers) have
// finite domains, so their entropy-vs-ln(n) curve flattens near saturation —
// the slope threshold is the discriminator (ordinary attributes saturate at
// tiny samples and sit near slope 0) and the R² gate only rejects noise.
const (
	DefaultFDEpsilon = 0.01
	DefaultKeySlope  = 0.25
	DefaultKeyR2     = 0.85
)

func (c PrepareConfig) fdEpsilon() float64 {
	if c.FDEpsilon <= 0 {
		return DefaultFDEpsilon
	}
	return c.FDEpsilon
}

// fdGapSlack widens the entropy-gap bound of PrepareCandidates by far more
// than the rounding error of the entropy sums (a few ulps of a value below
// ln(rows)), so the bound never prunes a pair the joint test would accept.
const fdGapSlack = 1e-9

// PrepareCandidates filters covariate candidates for a treatment attribute:
// it removes key-like attributes and attributes functionally tied to the
// treatment or to an earlier-kept candidate. The returned candidate order
// follows the input order.
//
// Two attributes a and b are tied when H(a|b) ≤ ε and H(b|a) ≤ ε, tested
// as H(a,b) − H(a) ≤ ε and H(a,b) − H(b) ≤ ε. Since H(a,b) ≥ max(H(a), H(b)),
// both hold only if |H(a) − H(b)| ≤ ε, so the joint is tabulated only for
// pairs whose cached single-attribute entropies lie within ε + δ of each
// other (δ = fdGapSlack). The single entropies are summed in code order
// and the joint over sorted counts, so a computed H(a,b) can fall a few
// ulps below max(H(a), H(b)); δ covers that, and the verdicts — hence
// kept, dropped and each Peer — are exactly those of testing every pair.
// The bound rests only on the pair's counts marginalizing to the single
// counts, which holds for any consistent read. The pre-pass thus costs one
// scan per attribute plus the joints of near-equal-entropy pairs.
func PrepareCandidates(ctx context.Context, rel source.Relation, treatment string, candidates []string, cfg PrepareConfig) (kept []string, dropped []Dropped, err error) {
	return prepareCandidates(ctx, rel, treatment, candidates, cfg, nil)
}

// prepare runs PrepareCandidates on view with c.Prepare. On a view with a
// result memo the key detector keeps each attribute's subsample entropies
// there, so the screens of one batch or sweep sample an attribute once.
func (c Config) prepare(ctx context.Context, view source.Relation, treatment string, candidates []string) (kept []string, dropped []Dropped, err error) {
	return prepareCandidates(ctx, view, treatment, candidates, c.Prepare, c.memo(view))
}

func prepareCandidates(ctx context.Context, rel source.Relation, treatment string, candidates []string, cfg PrepareConfig, memo *countcache.Memo) (kept []string, dropped []Dropped, err error) {
	if !rel.HasAttribute(treatment) {
		return nil, nil, fmt.Errorf("core: no treatment column %q: %w", treatment, hyperr.ErrUnknownAttribute)
	}
	eps := cfg.fdEpsilon()
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, nil, err
	}

	var keyLike map[string]bool
	if !cfg.SkipKeyDetection {
		keyLike, err = detectKeyAttributes(ctx, rel, candidates, cfg, memo)
		if err != nil {
			return nil, nil, err
		}
	}

	// A pair comes up at most once per candidate, so only the single
	// entropies are cached.
	joint := func(a, b string) (float64, error) {
		dc, err := source.Tabulate(ctx, rel, []string{a, b})
		if err != nil {
			return 0, err
		}
		return stats.EntropyCountsStable(dc.CellCounts(), n, stats.PlugIn), nil
	}
	singles := make(map[string]float64)
	single := func(a string) (float64, error) {
		if v, ok := singles[a]; ok {
			return v, nil
		}
		dc, err := source.Tabulate(ctx, rel, []string{a})
		if err != nil {
			return 0, err
		}
		// Code-ordered histogram: matches the code-vector estimator of the
		// in-memory pipeline bit for bit.
		v := stats.EntropyCounts(dc.Marginal(0), n, stats.PlugIn)
		singles[a] = v
		return v, nil
	}
	// equivalent reports whether H(a|b) ≤ eps and H(b|a) ≤ eps, skipping
	// the joint when the entropy gap alone rules the pair out.
	equivalent := func(a, b string) (bool, error) {
		ha, err := single(a)
		if err != nil {
			return false, err
		}
		hb, err := single(b)
		if err != nil {
			return false, err
		}
		if math.Abs(ha-hb) > eps+fdGapSlack {
			return false, nil
		}
		hab, err := joint(a, b)
		if err != nil {
			return false, err
		}
		return hab-ha <= eps && hab-hb <= eps, nil
	}

	for _, x := range candidates {
		if x == treatment {
			continue
		}
		if !rel.HasAttribute(x) {
			return nil, nil, fmt.Errorf("core: no candidate column %q: %w", x, hyperr.ErrUnknownAttribute)
		}
		if keyLike[x] {
			dropped = append(dropped, Dropped{Attr: x, Reason: DropKeyLike})
			continue
		}
		eqT, err := equivalent(x, treatment)
		if err != nil {
			return nil, nil, err
		}
		if eqT {
			dropped = append(dropped, Dropped{Attr: x, Reason: DropFDWithTreatment, Peer: treatment})
			continue
		}
		peer := ""
		for _, k := range kept {
			eq, err := equivalent(x, k)
			if err != nil {
				return nil, nil, err
			}
			if eq {
				peer = k
				break
			}
		}
		if peer != "" {
			dropped = append(dropped, Dropped{Attr: x, Reason: DropFDPeer, Peer: peer})
			continue
		}
		kept = append(kept, x)
	}
	return kept, dropped, nil
}

// detectKeyAttributes implements the paper's key test: draw random
// subsamples of increasing size, compute each attribute's entropy per
// subsample, and flag attributes whose entropy tracks ln(sample size) — for
// a true key H = ln(n) exactly, so the regression slope is 1 with R² = 1;
// ordinary attributes converge to a constant H with slope ≈ 0. A non-nil
// memo keeps the subsample entropies (see keyEntropies).
func detectKeyAttributes(ctx context.Context, rel source.Relation, attrs []string, cfg PrepareConfig, memo *countcache.Memo) (map[string]bool, error) {
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	sizes := cfg.KeySampleSizes
	if len(sizes) == 0 {
		sizes = defaultKeySizes(n)
	}
	if len(sizes) < 2 {
		return map[string]bool{}, nil // not enough scale range to decide
	}
	slopeThr := cfg.KeySlope
	if slopeThr <= 0 {
		slopeThr = DefaultKeySlope
	}
	r2Thr := cfg.KeyR2
	if r2Thr <= 0 {
		r2Thr = DefaultKeyR2
	}
	entropies, err := keyEntropies(ctx, rel, attrs, sizes, cfg.Seed, memo)
	if err != nil {
		return nil, err
	}

	out := make(map[string]bool)
	logSizes := make([]float64, len(sizes))
	for i, s := range sizes {
		logSizes[i] = math.Log(float64(s))
	}
	for i, a := range attrs {
		if entropies[i] == nil {
			continue
		}
		_, slope, r2, err := stats.LinearRegression(logSizes, entropies[i])
		if err != nil {
			continue // constant entropies: definitely not a key
		}
		if slope >= slopeThr && r2 >= r2Thr {
			out[a] = true
		}
	}
	return out, nil
}

// keyEntropies draws the key detector's subsamples: for attrs[i] it returns
// the plug-in entropy of one uniform subsample per size, or nil when the
// attribute is absent or has nothing to sample. Each attribute draws from
// its own PCG stream, seeded from seed and the FNV-1a hash of its name, so
// its entropies are a function of the data, the attribute, sizes and seed
// alone, whatever else attrs holds. A non-nil memo keeps them per (view,
// attribute, sizes, seed): later calls on the view read an attribute's
// entropies back instead of redrawing them, and the returned slices are
// shared and read-only. Each subsample is tallied into a code-indexed slice
// reused across sizes and attributes; its entropy sums the sorted non-zero
// counts, as a map histogram's would.
//
// On a materializable backend the subsamples are drawn from the rows
// themselves (the original procedure); on a counts-only backend they are
// drawn from the per-attribute histogram, which samples the same empirical
// distribution with the same streams.
func keyEntropies(ctx context.Context, rel source.Relation, attrs []string, sizes []int, seed int64, memo *countcache.Memo) ([][]float64, error) {
	// Row-level sampling when the rows are already in memory (the exact
	// original procedure); histogram sampling otherwise. The gate is the
	// zero-cost Table() capability, not Materializer: a remote SQL backend
	// CAN materialize, but pulling every selected row per query would
	// defeat count pushdown, and the histogram sampler draws the same
	// empirical distribution from one single-attribute count each.
	var tab *dataset.Table
	if m, ok := rel.(interface{ Table() *dataset.Table }); ok {
		tab = m.Table()
	}
	var memoPrefix string
	if memo != nil {
		memoPrefix = keyMemoPrefix(sizes, seed)
	}

	var pcg rand.PCG
	rng := rand.New(&pcg)
	out := make([][]float64, len(attrs))
	var tally []int
	for i, a := range attrs {
		if a == "" || !rel.HasAttribute(a) {
			continue // existence is validated by the caller
		}
		draw := func() (any, error) {
			sampleCode, total, card, err := codeSampler(ctx, rel, tab, a)
			if err != nil {
				return nil, err
			}
			if total == 0 {
				return []float64(nil), nil
			}
			if cap(tally) < card {
				tally = make([]int, card)
			}
			tally = tally[:card]
			pcg.Seed(uint64(seed^0x6b657973), fnv1a(a))
			entropies := make([]float64, len(sizes))
			for j, s := range sizes {
				clear(tally)
				for range s {
					tally[sampleCode(rng.IntN(total))]++
				}
				entropies[j] = stats.EntropyCountsStable(tally, s, stats.PlugIn)
			}
			return entropies, nil
		}
		var v any
		var err error
		if memo != nil {
			v, err = memo.Do(ctx, countcache.KeyEntropies, memoPrefix+a, draw)
		} else {
			v, err = draw()
		}
		if err != nil {
			return nil, err
		}
		out[i] = v.([]float64)
	}
	return out, nil
}

// keyMemoPrefix renders the sampling settings of a key-entropy memo key;
// the attribute name follows it. Sizes end at the '|', so the key is
// injective.
func keyMemoPrefix(sizes []int, seed int64) string {
	b := strconv.AppendInt(nil, seed, 10)
	for _, s := range sizes {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return string(append(b, '|'))
}

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// codeSampler returns a function mapping a uniform draw in [0,total) to an
// attribute code below card: by row lookup when a materialized table is
// available, by cumulative-histogram bucket otherwise (same empirical
// distribution). The histogram's own total bounds the draws, not the
// relation's row count: a degraded read or a table changing between two
// queries can leave the histogram short of it.
func codeSampler(ctx context.Context, rel source.Relation, tab *dataset.Table, attr string) (sample func(int) int32, total, card int, err error) {
	if tab != nil {
		col, err := tab.Column(attr)
		if err != nil {
			return nil, 0, 0, err
		}
		return col.Code, tab.NumRows(), col.Card(), nil
	}
	dc, err := source.Tabulate(ctx, rel, []string{attr})
	if err != nil {
		return nil, 0, 0, err
	}
	// Canonical layout: code 0 occupies draws [0, n_0), code 1 the next
	// n_1, and so on — a uniform draw maps to a code with probability
	// proportional to its count.
	cum := dc.Marginal(0)
	for code := 1; code < len(cum); code++ {
		cum[code] += cum[code-1]
	}
	return func(i int) int32 {
		return int32(sort.SearchInts(cum, i+1))
	}, dc.Total, len(cum), nil
}

// defaultKeySizes builds a geometric ladder of subsample sizes.
func defaultKeySizes(n int) []int {
	if n < 64 {
		return nil
	}
	var sizes []int
	for s := n; s >= 64 && len(sizes) < 5; s /= 4 {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}
