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
	"slices"
	"sort"
	"strings"
	"sync"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/stats"
	"hypdb/source"
)

// Provider supplies joint entropies and distinct counts over attribute sets
// of one fixed relation, one unpredicated tabulation per attribute set —
// except that conditionalMI derives a statement's smaller sets from its one
// xyZ tabulation. Sec 6's two optimizations live around it rather than in
// it: contingency tables are materialized by priming the relation's count
// cache with the phase's attribute closure (the cache then answers every
// subset by marginalization — contingency tables with their marginals are
// the data cube), and entropies are cached by the provider's own memo, so
// H(T), H(TZ), ... shared among many conditional mutual-information
// statements are computed once. A count-cache view keeps one memoizing provider per
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

// wrapper is a relation answering for another over the same data: a count
// cache wrapped around a backend view (core wraps a view without a cache of
// its own so a phase can prime it).
type wrapper interface {
	Inner() source.Relation
}

// over returns p when it answers for rel — it was built over rel or over a
// wrapper of rel — and otherwise a fresh provider over rel without the
// entropy cache: a test reads the relation it is given, whatever provider
// its tester carries. p may be nil.
func (p *Provider) over(ctx context.Context, rel source.Relation, est stats.Estimator) (*Provider, error) {
	if p != nil {
		if w, ok := p.rel.(wrapper); p.rel == rel || ok && w.Inner() == rel {
			return p, nil
		}
	}
	return NewProvider(ctx, rel, est, false)
}

// distinctCount returns |Π_attrs(D)|, the number of distinct combinations
// present in the data.
func (p *Provider) distinctCount(ctx context.Context, attrs []string) (int, error) {
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
	if s, ok := p.lookup(sorted); ok {
		return s, nil
	}
	// Sorted attributes: entropy and distinct counts do not depend on
	// attribute order, and a count cache stores its views in sorted order,
	// so it hands back the stored view with no reorder projection.
	dc, err := source.Tabulate(ctx, p.rel, sorted)
	if err != nil {
		return entropyStat{}, err
	}
	s := p.statOf(dc, entropy || p.memo != nil)
	p.store(sorted, s)
	return s, nil
}

// lookup answers a sorted, non-empty attribute set from the memo, counting
// the hit or miss; ok is false on a miss and whenever the memo is off.
func (p *Provider) lookup(sorted []string) (entropyStat, bool) {
	if p.memo == nil {
		return entropyStat{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.memo[strings.Join(sorted, "\x00")]
	if ok {
		p.hits++
	} else {
		p.misses++
	}
	return s, ok
}

// store memoizes the stat of a sorted attribute set when the memo is on.
func (p *Provider) store(sorted []string, s entropyStat) {
	if p.memo == nil {
		return
	}
	key := strings.Join(sorted, "\x00")
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.memo {
		if len(p.memo) < maxEntropies {
			break
		}
		delete(p.memo, k)
	}
	p.memo[key] = s
}

// statOf is the stat of one tabulation. The entropy sums the non-zero
// counts in ascending order, so it is the same bit for bit whichever form
// the tabulation comes in, and whether it was tabulated or marginalized.
func (p *Provider) statOf(dc *dataset.DenseCounts, entropy bool) entropyStat {
	s := entropyStat{distinct: dc.NonZero()}
	if entropy {
		s.h = stats.EntropyCountsStable(dc.CellCounts(), p.n, p.est)
	}
	return s
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

// conditionalMI estimates I(x;V|z) on the provider's relation, V being the
// variable set y, using the chain-rule identity over four joint entropies:
// H(xZ) + H(VZ) − H(xVZ) − H(Z). All four are marginals of one contingency
// table, so the statement makes at most one tabulation, of xVZ in sorted
// order, and derives each other term the memo misses by marginalizing it.
// Deriving is used only when a marginalization pass over the view costs no
// more than a pass over the rows — when the view holds at most NumRows
// cells; a larger (dense, mostly empty) view falls back to one tabulation
// per term. Memo lookups, stores and the Stats tallies are those of asking
// for each term in turn, and the entropies are bit-identical to tabulating
// each term directly.
func conditionalMI(ctx context.Context, p *Provider, x string, y, z []string) (float64, error) {
	xyz := make([]string, 0, len(z)+1+len(y))
	xyz = append(append(append(xyz, z...), x), y...)
	slices.Sort(xyz)
	k, ix := len(xyz), slices.Index(xyz, x)
	iv := make([]int, 0, 8) // V's positions in xVZ; a constant capacity keeps them off the heap
	for i, a := range xyz {
		if slices.Contains(y, a) {
			iv = append(iv, i)
		}
	}
	// The terms xZ, VZ, xVZ, Z as positions in xVZ; sorted, since xVZ is.
	keeps := [4][]int{without(k, iv...), without(k, ix), without(k), without(k, append(iv, ix)...)}
	var (
		h      [4]float64
		attrs  [4][]string
		missed []int
	)
	for i, keep := range keeps {
		attrs[i] = make([]string, len(keep))
		for j, pos := range keep {
			attrs[i][j] = xyz[pos]
		}
		if len(keep) == 0 {
			continue // H(∅) = 0
		}
		if s, ok := p.lookup(attrs[i]); ok {
			h[i] = s.h
			continue
		}
		missed = append(missed, i)
	}
	if len(missed) == 0 {
		return stats.ConditionalMI(h[0], h[1], h[2], h[3]), nil
	}
	view, err := source.Tabulate(ctx, p.rel, xyz)
	if err != nil {
		return 0, err
	}
	derive := len(view.CellCounts()) <= p.n
	views := [4]*dataset.DenseCounts{2: view}
	for _, i := range missed {
		switch {
		case i == 2:
		case !derive:
			views[i], err = source.Tabulate(ctx, p.rel, attrs[i])
		case i == 3 && views[0] != nil:
			// Z is the smaller marginal of the xZ view already in hand.
			views[i], err = views[0].Project(without(len(attrs[0]), slices.Index(attrs[0], x)))
		default:
			views[i], err = view.Project(keeps[i])
		}
		if err != nil {
			return 0, err
		}
		s := p.statOf(views[i], true)
		p.store(attrs[i], s)
		h[i] = s.h
	}
	return stats.ConditionalMI(h[0], h[1], h[2], h[3]), nil
}

// without returns the positions 0..n−1 except those in drop, in order.
func without(n int, drop ...int) []int {
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !slices.Contains(drop, i) {
			keep = append(keep, i)
		}
	}
	return keep
}

// degreesOfFreedom returns (|Π_x|−1)(|Π_V|−1)·|Π_z| as used by the
// parametric test (Sec 6), V being the variable set y: |Π_V| counts its
// occupied tuples.
func degreesOfFreedom(ctx context.Context, p *Provider, x string, y, z []string) (int, error) {
	dx, err := p.distinctCount(ctx, []string{x})
	if err != nil {
		return 0, err
	}
	dy, err := p.distinctCount(ctx, y)
	if err != nil {
		return 0, err
	}
	dz, err := p.distinctCount(ctx, z)
	if err != nil {
		return 0, err
	}
	if dx < 2 || dy < 2 {
		return 0, nil
	}
	return (dx - 1) * (dy - 1) * dz, nil
}

// ensureAttrs verifies that the named attributes exist and that x, the
// variable set y and the conditioning set z are disjoint, y being non-empty
// and free of repeats.
func ensureAttrs(rel source.Relation, x string, y, z []string) error {
	if len(y) == 0 {
		return fmt.Errorf("independence: testing %q against an empty variable set", x)
	}
	if !rel.HasAttribute(x) {
		return fmt.Errorf("independence: no column %q: %w", x, hyperr.ErrUnknownAttribute)
	}
	for i, a := range y {
		switch {
		case a == x:
			return fmt.Errorf("independence: testing %q against itself", x)
		case slices.Contains(y[:i], a):
			return fmt.Errorf("independence: variable set repeats %q", a)
		case !rel.HasAttribute(a):
			return fmt.Errorf("independence: no column %q: %w", a, hyperr.ErrUnknownAttribute)
		}
	}
	for _, a := range z {
		if a == x || slices.Contains(y, a) {
			return fmt.Errorf("independence: conditioning set contains tested attribute %q", a)
		}
		if !rel.HasAttribute(a) {
			return fmt.Errorf("independence: no column %q: %w", a, hyperr.ErrUnknownAttribute)
		}
	}
	return nil
}
