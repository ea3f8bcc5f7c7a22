// Package independence implements HypDB's conditional-independence testing
// engine (Sec 5 and Sec 6 of the paper): the Monte-Carlo permutation test
// over contingency tables (MIT, Alg 2), its group-sampling variant, the
// parametric chi-squared G-test, the hybrid HyMIT rule, and — as the
// baseline the paper's optimization replaces — the naive permutation test
// that reshuffles the data itself.
//
// All tests share the Tester interface so that higher layers (Markov
// boundary discovery, the CD algorithm, bias detection) are parameterized
// by the testing strategy, exactly as in the paper's experiments. Tests
// consume a source.Relation — the storage contract — so any backend that
// answers dictionary-coded group-by counts (in-memory columnar, SQL with
// count pushdown, ...) can drive them; only the naive shuffle test needs
// row-level access and requires a source.Materializer-capable backend.
package independence

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hypdb/internal/hyperr"
	"hypdb/internal/stats"
	"hypdb/source"
)

// Provider supplies joint entropies and distinct counts over attribute sets
// of one fixed relation, one unpredicated Counts request per attribute set.
// Sec 6's two optimizations live around it rather than in it: contingency
// tables are materialized by priming the relation's count cache with the
// phase's attribute closure (the cache then answers every subset by
// marginalization — contingency tables with their marginals are the data
// cube), and entropies are cached by the provider's own memo, so H(T),
// H(TZ), ... shared among many conditional mutual-information statements
// are computed once. A count-cache view keeps one memoizing provider per
// estimator for every test run on it (core.Config), so the memo is bounded
// by maxEntropies. It is safe for concurrent use.
type Provider struct {
	rel source.Relation
	est stats.Estimator
	n   int

	mu     sync.Mutex
	memo   map[string]entropyStat // nil when the entropy cache is off
	hits   int
	misses int
}

// maxEntropies bounds the entropy memo; past it arbitrary entries are
// evicted (the memo is a pure cache). A Fig 1 analysis over 101 attributes
// stores about a thousand.
const maxEntropies = 8192

// entropyStat is what one attribute set's counts contribute to a test.
type entropyStat struct {
	h        float64
	distinct int
}

// NewProvider returns a provider over rel using the given estimator; memo
// switches the entropy cache on. The row count is fetched eagerly (one
// aggregate query).
func NewProvider(ctx context.Context, rel source.Relation, est stats.Estimator, memo bool) (*Provider, error) {
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	p := &Provider{rel: rel, est: est, n: n}
	if memo {
		p.memo = make(map[string]entropyStat)
	}
	return p, nil
}

// JointEntropy returns the estimated H(attrs) in nats.
func (p *Provider) JointEntropy(ctx context.Context, attrs []string) (float64, error) {
	s, err := p.stat(ctx, attrs, true)
	return s.h, err
}

// DistinctCount returns |Π_attrs(D)|, the number of distinct combinations
// present in the data.
func (p *Provider) DistinctCount(ctx context.Context, attrs []string) (int, error) {
	s, err := p.stat(ctx, attrs, false)
	return s.distinct, err
}

// NumRows returns the number of rows of the underlying relation.
func (p *Provider) NumRows() int { return p.n }

// Stats returns entropy-cache hit/miss counts, for the Fig 6(c) ablation.
func (p *Provider) Stats() (hits, misses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// stat answers one attribute set, through the memo when it is on. Memo
// entries always carry the entropy; without the memo it is computed only
// when asked for.
func (p *Provider) stat(ctx context.Context, attrs []string, entropy bool) (entropyStat, error) {
	if len(attrs) == 0 {
		return entropyStat{distinct: 1}, nil
	}
	sorted := attrs
	if !sort.StringsAreSorted(attrs) {
		sorted = append([]string(nil), attrs...)
		sort.Strings(sorted)
	}
	if p.memo == nil {
		return p.compute(ctx, sorted, entropy)
	}
	key := strings.Join(sorted, "\x00")
	p.mu.Lock()
	if s, ok := p.memo[key]; ok {
		p.hits++
		p.mu.Unlock()
		return s, nil
	}
	p.misses++
	p.mu.Unlock()
	s, err := p.compute(ctx, sorted, true)
	if err != nil {
		return entropyStat{}, err
	}
	p.mu.Lock()
	for k := range p.memo {
		if len(p.memo) < maxEntropies {
			break
		}
		delete(p.memo, k)
	}
	p.memo[key] = s
	p.mu.Unlock()
	return s, nil
}

// compute tabulates attrs, which must be sorted: entropy and distinct
// counts do not depend on attribute order, and a count cache stores its
// views in sorted order, so it hands back the stored view with no reorder
// projection. The entropy sums the sorted non-zero counts, so it is the
// same bit for bit whichever form the tabulation comes in.
func (p *Provider) compute(ctx context.Context, attrs []string, entropy bool) (entropyStat, error) {
	dc, err := source.Tabulate(ctx, p.rel, attrs)
	if err != nil {
		return entropyStat{}, err
	}
	s := entropyStat{distinct: dc.NonZero()}
	if entropy {
		s.h = stats.EntropyCountsStable(dc.CellCounts(), p.n, p.est)
	}
	return s, nil
}

// SharedProvider binds the χ² branch of a tester to one memoizing provider
// over rel, so the entropy cache accumulates across the many Test calls of
// a search loop (Grow-Shrink, IAMB, the FGS edge-removal sweeps) instead of
// being rebuilt per call. Testers that already carry a provider — or have
// no provider slot (MIT, Shuffle, wrappers) — are returned unchanged.
func SharedProvider(ctx context.Context, t Tester, rel source.Relation) (Tester, error) {
	switch v := t.(type) {
	case ChiSquare:
		if v.Provider != nil {
			return t, nil
		}
		p, err := NewProvider(ctx, rel, v.Est, true)
		if err != nil {
			return nil, err
		}
		v.Provider = p
		return v, nil
	case HyMIT:
		if v.Provider != nil {
			return t, nil
		}
		p, err := NewProvider(ctx, rel, v.Est, true)
		if err != nil {
			return nil, err
		}
		v.Provider = p
		return v, nil
	}
	return t, nil
}

// ConditionalMI estimates I(x;y|z) on the provider's relation using the
// chain-rule identity over four joint entropies.
func ConditionalMI(ctx context.Context, p *Provider, x, y string, z []string) (float64, error) {
	xz := append(append([]string(nil), z...), x)
	yz := append(append([]string(nil), z...), y)
	xyz := append(append([]string(nil), z...), x, y)
	hXZ, err := p.JointEntropy(ctx, xz)
	if err != nil {
		return 0, err
	}
	hYZ, err := p.JointEntropy(ctx, yz)
	if err != nil {
		return 0, err
	}
	hXYZ, err := p.JointEntropy(ctx, xyz)
	if err != nil {
		return 0, err
	}
	hZ, err := p.JointEntropy(ctx, z)
	if err != nil {
		return 0, err
	}
	return stats.ConditionalMI(hXZ, hYZ, hXYZ, hZ), nil
}

// DegreesOfFreedom returns (|Π_x|−1)(|Π_y|−1)·|Π_z| as used by the
// parametric test (Sec 6).
func DegreesOfFreedom(ctx context.Context, p *Provider, x, y string, z []string) (int, error) {
	dx, err := p.DistinctCount(ctx, []string{x})
	if err != nil {
		return 0, err
	}
	dy, err := p.DistinctCount(ctx, []string{y})
	if err != nil {
		return 0, err
	}
	dz, err := p.DistinctCount(ctx, z)
	if err != nil {
		return 0, err
	}
	if dx < 2 || dy < 2 {
		return 0, nil
	}
	return (dx - 1) * (dy - 1) * dz, nil
}

// ensureAttrs verifies the named attributes exist and are distinct between
// the tested pair and the conditioning set.
func ensureAttrs(rel source.Relation, x, y string, z []string) error {
	if x == y {
		return fmt.Errorf("independence: testing %q against itself", x)
	}
	if !rel.HasAttribute(x) {
		return fmt.Errorf("independence: no column %q: %w", x, hyperr.ErrUnknownAttribute)
	}
	if !rel.HasAttribute(y) {
		return fmt.Errorf("independence: no column %q: %w", y, hyperr.ErrUnknownAttribute)
	}
	for _, a := range z {
		if a == x || a == y {
			return fmt.Errorf("independence: conditioning set contains tested attribute %q", a)
		}
		if !rel.HasAttribute(a) {
			return fmt.Errorf("independence: no column %q: %w", a, hyperr.ErrUnknownAttribute)
		}
	}
	return nil
}
