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
// with count pushdown. The Sec 4 pre-pass reads rows only where the backend
// already holds them in memory (its zero-cost Table() capability): the key
// detector then subsamples rows, and the FD screen bounds joints from a row
// prefix. Elsewhere the detector resamples each attribute's histogram and
// the screen tabulates its joints.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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

// fdGapSlack widens the bounds of the pre-pass by far more than the
// rounding error of the entropy sums (a few ulps of a value below
// ln(rows)), so a bound never prunes a pair the joint test would accept or
// an attribute the slope test would flag.
const fdGapSlack = 1e-9

// fdPrefixRows is the row prefix m of the FD screen's prefix bound.
const fdPrefixRows = 256

// prepare runs prepareCandidates on view with the default PrepareConfig.
// On a view with a result memo the key detector keeps each attribute's
// subsample entropies there, so the screens of one batch or sweep sample an
// attribute once.
func (c Config) prepare(ctx context.Context, view source.Relation, treatment string, candidates []string) (kept []string, dropped []Dropped, err error) {
	return prepareCandidates(ctx, view, treatment, candidates, PrepareConfig{}, c.memo(view))
}

// prepareCandidates filters covariate candidates for a treatment attribute:
// it removes key-like attributes and attributes functionally tied to the
// treatment or to an earlier-kept candidate. The returned candidate order
// follows the input order.
//
// Two attributes a and b are tied when H(a|b) ≤ ε and H(b|a) ≤ ε, tested
// as H(a,b) − H(a) ≤ ε and H(a,b) − H(b) ≤ ε, that is H(a,b) ≤
// min(H(a), H(b)) + ε. Two exact lower bounds on H(a,b) rule pairs out
// before their joint is tabulated:
//
//   - the entropy gap: H(a,b) ≥ max(H(a), H(b)), so a pair is tied only if
//     |H(a) − H(b)| ≤ ε;
//   - the row prefix, where the rows are in memory (the Table() gate of
//     keyEntropies): entropy is concave and the rows split into the first m
//     and the rest, so H(a,b) ≥ (m/n)·H(joint of the first m rows) +
//     ((n−m)/n)·max(H(rest of a), H(rest of b)). The rest marginals are the
//     single counts minus those of the prefix.
//
// Each bound prunes only when it exceeds its threshold by δ = fdGapSlack.
// The single entropies are summed in code order, the joint over sorted
// counts and the prefix term cell by cell, so a computed H(a,b) can fall a
// few ulps below a computed bound; δ covers that, and the verdicts — hence
// kept, dropped and each Peer — are exactly those of testing every pair.
// The gap bound rests only on the pair's counts marginalizing to the single
// counts, which holds for any consistent read; the prefix bound also on
// Table() holding the rows those counts were read from. The pre-pass thus
// costs one scan per attribute plus the joints no bound rules out. A
// non-nil memo keeps the key detector's subsample entropies (see
// Config.prepare).
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

	// The prefix bound reads the rows the counts came from.
	tab := rowTable(rel)
	if tab != nil && tab.NumRows() != n {
		tab = nil
	}
	m := min(fdPrefixRows, n)

	// A pair comes up at most once per candidate, so only the singles are
	// cached.
	joint := func(a, b string) (float64, error) {
		dc, err := source.Tabulate(ctx, rel, []string{a, b})
		if err != nil {
			return 0, err
		}
		return stats.EntropyCountsStable(dc.CellCounts(), n, stats.PlugIn), nil
	}
	singles := make(map[string]*fdMarginal)
	single := func(a string) (*fdMarginal, error) {
		if v, ok := singles[a]; ok {
			return v, nil
		}
		dc, err := source.Tabulate(ctx, rel, []string{a})
		if err != nil {
			return nil, err
		}
		counts := dc.Marginal(0)
		// Code-ordered histogram: matches the code-vector estimator of the
		// in-memory pipeline bit for bit.
		v := &fdMarginal{h: stats.EntropyCounts(counts, n, stats.PlugIn)}
		if tab != nil {
			col, err := tab.Column(a)
			if err != nil {
				return nil, err
			}
			v.prefix = col.Codes()[:m]
			for _, c := range v.prefix {
				counts[c]--
			}
			v.hRest = stats.EntropyCounts(counts, n-m, stats.PlugIn)
		}
		singles[a] = v
		return v, nil
	}
	var cells [1 << prefixBits]prefixCell
	// prefixBound is the row-prefix lower bound on H(a,b). It counts the
	// prefix's code pairs in an open-addressing table and keeps S = Σ c·ln c
	// over them, so m·H(prefix joint) = m·ln m − S.
	prefixBound := func(a, b *fdMarginal) float64 {
		clear(cells[:])
		sum := 0.0
		for i := range m {
			k := uint64(a.prefix[i])<<32 | uint64(b.prefix[i])
			h := k * 0x9e3779b97f4a7c15 >> (64 - prefixBits)
			for cells[h].n != 0 && cells[h].key != k {
				h = (h + 1) % uint64(len(cells))
			}
			c := &cells[h]
			c.key = k
			sum += xlogx[c.n+1] - xlogx[c.n]
			c.n++
		}
		return (xlogx[m] - sum + float64(n-m)*max(a.hRest, b.hRest)) / float64(n)
	}
	// equivalent reports whether H(a|b) ≤ eps and H(b|a) ≤ eps, skipping
	// the joint when a bound alone rules the pair out.
	equivalent := func(a, b string) (bool, error) {
		ma, err := single(a)
		if err != nil {
			return false, err
		}
		mb, err := single(b)
		if err != nil {
			return false, err
		}
		ha, hb := ma.h, mb.h
		if math.Abs(ha-hb) > eps+fdGapSlack {
			return false, nil
		}
		if tab != nil && prefixBound(ma, mb) > min(ha, hb)+eps+fdGapSlack {
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

// prefixBits sizes prefixBound's table at 2^prefixBits ≥ 2·fdPrefixRows
// cells, so it is at most half full.
const prefixBits = 9

// prefixCell counts the prefix rows holding one code pair.
type prefixCell struct {
	key uint64
	n   int32
}

// xlogx[c] is c·ln c for the counts a prefix cell can hold.
var xlogx = func() (t [fdPrefixRows + 1]float64) {
	for c := 2; c <= fdPrefixRows; c++ {
		t[c] = float64(c) * math.Log(float64(c))
	}
	return t
}()

// fdMarginal is what the FD screen keeps of one attribute: its entropy h
// and, on the row path, its codes in the first m rows and its entropy
// hRest over the other n − m.
type fdMarginal struct {
	h      float64
	prefix []int32
	hRest  float64
}

// detectKeyAttributes implements the paper's key test: draw random
// subsamples of increasing size, compute each attribute's entropy per
// subsample, and flag attributes whose entropy tracks ln(sample size) — for
// a true key H = ln(n) exactly, so the regression slope is 1 with R² = 1;
// ordinary attributes converge to a constant H with slope ≈ 0. An attribute
// stops drawing once its slope cannot reach the threshold (see
// keySlopeBound). A non-nil memo keeps the subsample entropies (see
// keyEntropies).
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
	entropies, err := keyEntropies(ctx, rel, attrs, sizes, cfg.Seed, slopeThr, memo)
	if err != nil {
		return nil, err
	}

	out := make(map[string]bool)
	logSizes := logs(sizes)
	for i, a := range attrs {
		if len(entropies[i]) < len(sizes) {
			continue // absent, empty, or ruled out before its last draw
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
// alone, whatever else attrs holds. With minSlope > 0 an attribute stops
// drawing once keySlopeBound shows its slope cannot reach minSlope, and its
// slice holds the entropies drawn so far, shorter than sizes; the draws keep
// their order on the stream, so each one equals the full draw's. Zero draws
// every size. A non-nil memo keeps the slices per (view, attribute, sizes,
// seed, minSlope): later calls on the view read an attribute's entropies
// back instead of redrawing them, and the returned slices are shared and
// read-only. Each subsample is tallied into a code-indexed slice reused
// across sizes and attributes; its entropy sums the sorted non-zero counts,
// as a map histogram's would.
//
// Where rowTable finds the rows in memory the subsamples are drawn from the
// rows themselves (the original procedure); elsewhere they are drawn from
// the per-attribute histogram, which samples the same empirical
// distribution with the same streams.
func keyEntropies(ctx context.Context, rel source.Relation, attrs []string, sizes []int, seed int64, minSlope float64, memo *countcache.Memo) ([][]float64, error) {
	tab := rowTable(rel)
	var memoPrefix string
	if memo != nil {
		memoPrefix = keyMemoPrefix(sizes, seed, minSlope)
	}
	var bound *keySlopeBound
	if minSlope > 0 {
		bound = newKeySlopeBound(sizes, minSlope)
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
			smp, err := newCodeSampler(ctx, rel, tab, a)
			if err != nil {
				return nil, err
			}
			if smp.total == 0 {
				return []float64(nil), nil
			}
			if cap(tally) < smp.card {
				tally = make([]int, smp.card)
			}
			tally = tally[:smp.card]
			pcg.Seed(uint64(seed^0x6b657973), fnv1a(a))
			entropies := make([]float64, 0, len(sizes))
			for _, s := range sizes {
				if bound.ruledOut(entropies, smp.distinct) {
					break
				}
				clear(tally)
				smp.tally(tally, s, rng)
				entropies = append(entropies, stats.EntropyCountsStable(tally, s, stats.PlugIn))
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

// rowTable returns the rows of rel when it holds them in memory, else nil.
// The gate is the zero-cost Table() capability, not Materializer: a remote
// SQL backend CAN materialize, but pulling every selected row per query
// would defeat count pushdown, and without rows the pre-pass keeps to
// counts: the key detector resamples each attribute's histogram, and the
// FD screen tabulates the joints its entropy-gap bound leaves.
func rowTable(rel source.Relation) *dataset.Table {
	if m, ok := rel.(interface{ Table() *dataset.Table }); ok {
		return m.Table()
	}
	return nil
}

// keySlopeBound bounds the key detector's slope before each draw.
// stats.LinearRegression's slope is Σ d_j·y_j / (k·v), where y_j is the
// entropy at size s_j, d_j = ln s_j − mean(ln s) and v is the variance of
// the k values ln s_j. The plug-in entropy of s_j draws over at most c
// distinct values lies in [0, ln min(c, s_j)], so once the first j
// entropies are drawn the slope is at most
//
//	(Σ_{i<j} d_i·y_i + Σ_{i≥j, d_i>0} d_i·ln min(c, s_i)) / (k·v).
type keySlopeBound struct {
	d, logSizes []float64
	scale       float64 // k·v
	min         float64 // the threshold less fdGapSlack
}

func newKeySlopeBound(sizes []int, minSlope float64) *keySlopeBound {
	b := &keySlopeBound{logSizes: logs(sizes), min: minSlope - fdGapSlack}
	mean, v := stats.MeanVariance(b.logSizes)
	b.scale = float64(len(sizes)) * v
	for _, x := range b.logSizes {
		b.d = append(b.d, x-mean)
	}
	return b
}

// ruledOut reports that no entropies of the undrawn sizes can lift the
// slope of drawn to the threshold over an attribute of at most distinct
// values. fdGapSlack covers the rounding of the two sums, and an entropy
// a few ulps past the log of its support, so the slope LinearRegression
// computes is then below the threshold too. With constant ln s_j the
// regression fails and no attribute is key-like. A nil bound rules out
// nothing.
func (b *keySlopeBound) ruledOut(drawn []float64, distinct int) bool {
	if b == nil {
		return false
	}
	if b.scale == 0 {
		return true
	}
	sum := 0.0
	for j, y := range drawn {
		sum += b.d[j] * y
	}
	logDistinct := math.Log(float64(distinct))
	for j := len(drawn); j < len(b.d); j++ {
		if b.d[j] > 0 {
			sum += b.d[j] * min(b.logSizes[j], logDistinct)
		}
	}
	return sum < b.min*b.scale
}

// logs returns ln s for each of sizes.
func logs(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = math.Log(float64(s))
	}
	return out
}

// keyMemoPrefix renders the sampling settings of a key-entropy memo key;
// the attribute name follows it. The slope's shortest rendering has no
// comma and the sizes end at the '|', so the key is injective.
func keyMemoPrefix(sizes []int, seed int64, minSlope float64) string {
	b := strconv.AppendFloat(nil, minSlope, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, seed, 10)
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

// codeSampler maps a uniform draw in [0,total) to an attribute code below
// card. With a materialized table the draw is a row and codes holds the
// column's codes; otherwise the draw falls in the cumulative histogram,
// which samples the same empirical distribution: code 0 occupies draws
// [0, n_0), code 1 the next n_1, and so on. The histogram's own total
// bounds the draws, not the relation's row count: a degraded read or a
// table changing between two queries can leave the histogram short of it.
//
// A guide table over the histogram replaces a binary search per draw:
// guide[b] is the code of draw b<<shift, with shift = bits.Len(total/card)
// so that a bucket spans at most two codes' worth of draws on average, and
// there are at most card buckets.
type codeSampler struct {
	codes []int32 // row path: one code per draw
	cum   []int   // histogram path: cum[c] = draws below the end of code c
	guide []int32
	shift uint
	total int
	card  int
	// distinct bounds the number of codes a draw can return: the
	// histogram's occupied codes, or card on the row path.
	distinct int
}

func newCodeSampler(ctx context.Context, rel source.Relation, tab *dataset.Table, attr string) (codeSampler, error) {
	if tab != nil {
		col, err := tab.Column(attr)
		if err != nil {
			return codeSampler{}, err
		}
		return codeSampler{codes: col.Codes(), total: tab.NumRows(), card: col.Card(), distinct: col.Card()}, nil
	}
	dc, err := source.Tabulate(ctx, rel, []string{attr})
	if err != nil {
		return codeSampler{}, err
	}
	return histSampler(dc.Marginal(0), dc.Total), nil
}

// histSampler builds the guide table over counts, which it turns into their
// running sums in place; total is their sum.
func histSampler(counts []int, total int) codeSampler {
	s := codeSampler{cum: counts, total: total, card: len(counts)}
	for c := range counts {
		if counts[c] > 0 {
			s.distinct++
		}
		if c > 0 {
			counts[c] += counts[c-1]
		}
	}
	if total == 0 {
		return s
	}
	s.shift = uint(bits.Len(uint(total / s.card)))
	s.guide = make([]int32, (total-1)>>s.shift+1)
	c := 0
	for b := range s.guide {
		for s.cum[c] <= b<<s.shift {
			c++
		}
		s.guide[b] = int32(c)
	}
	return s
}

// lookup returns the histogram code of draw i: sort.SearchInts(cum, i+1).
func (s *codeSampler) lookup(i int) int32 {
	c := s.guide[i>>s.shift]
	for s.cum[c] <= i {
		c++
	}
	return c
}

// tally adds n draws from rng to tally, indexed by code.
func (s *codeSampler) tally(tally []int, n int, rng *rand.Rand) {
	if s.codes != nil {
		for range n {
			tally[s.codes[rng.IntN(s.total)]]++
		}
		return
	}
	for range n {
		tally[s.lookup(rng.IntN(s.total))]++
	}
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
