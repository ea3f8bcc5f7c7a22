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
// row-level access and requires a source.Materializer-capable backend. The
// χ² branches read joint entropies through a Provider, which caches them in
// a countcache.Memo, on a count-cache view the view's own.
package independence

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"hypdb/internal/countcache"
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
// the data cube), and entropies are cached in a countcache.Memo, so H(T),
// H(TZ), ... shared among many conditional mutual-information statements
// are computed once. On a count-cache view that memo is the view's own
// (core.Config), so every provider over the view shares them, whatever
// phase built it. It is safe for concurrent use.
type Provider struct {
	rel  source.Relation
	est  stats.Estimator
	n    int
	memo *countcache.Memo // nil when the entropy cache is off
}

// entropyStat is what one attribute set's counts contribute to a test.
type entropyStat struct {
	h        float64
	distinct int
}

// NewProvider returns a provider over rel using the given estimator. A
// non-nil memo is the entropy cache: it keeps each attribute set's stat
// under the set and the estimator (family countcache.Entropies), so it must
// hold results of rel's data only, such as rel's own memo. The row count is
// fetched eagerly (one aggregate query).
func NewProvider(ctx context.Context, rel source.Relation, est stats.Estimator, memo *countcache.Memo) (*Provider, error) {
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	return &Provider{rel: rel, est: est, n: n, memo: memo}, nil
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
	return NewProvider(ctx, rel, est, nil)
}

// distinctCount returns |Π_attrs(D)|, the number of distinct combinations
// present in the data.
func (p *Provider) distinctCount(ctx context.Context, attrs []string) (int, error) {
	s, err := p.stat(ctx, attrs, false)
	return s.distinct, err
}

// NumRows returns the number of rows of the underlying relation.
func (p *Provider) NumRows() int { return p.n }

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
	return p.cached(ctx, sorted, func() (entropyStat, error) {
		// Sorted attributes: entropy and distinct counts do not depend on
		// attribute order, and a count cache stores its views in sorted
		// order, so it hands back the stored view with no reorder
		// projection.
		dc, err := source.Tabulate(ctx, p.rel, sorted)
		if err != nil {
			return entropyStat{}, err
		}
		return p.statOf(dc.CellCounts(), entropy || p.memo != nil), nil
	})
}

// cached returns the stat of a sorted, non-empty attribute set from the
// memo, running compute once on a miss; without the memo it runs compute.
func (p *Provider) cached(ctx context.Context, attrs []string, compute func() (entropyStat, error)) (entropyStat, error) {
	if p.memo == nil {
		return compute()
	}
	var buf [64]byte
	v, err := p.memo.DoBytes(ctx, countcache.Entropies, p.appendKey(buf[:0], attrs), func() (any, error) { return compute() })
	if err != nil {
		return entropyStat{}, err
	}
	return v.(entropyStat), nil
}

// appendKey renders the estimator and an attribute set injectively: each
// name is length-prefixed, so no name can pass for two.
func (p *Provider) appendKey(b []byte, attrs []string) []byte {
	b = strconv.AppendInt(b, int64(p.est), 10)
	b = append(b, '|')
	for _, a := range attrs {
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(append(b, ':'), a...)
	}
	return b
}

// statOf is the stat of one tabulation's counts (its CellCounts). The
// entropy sums the non-zero counts in ascending order, so it is the same
// bit for bit whichever form the tabulation comes in, and whether it was
// tabulated or marginalized.
func (p *Provider) statOf(counts []int, entropy bool) entropyStat {
	s := entropyStat{}
	for _, c := range counts {
		if c > 0 {
			s.distinct++
		}
	}
	if entropy {
		s.h = stats.EntropyCountsStable(counts, p.n, p.est)
	}
	return s
}

// SharedProvider binds the χ² branch of a tester to one memoizing provider
// over rel, so the entropy cache accumulates across the many Test calls of
// a search loop (Grow-Shrink, IAMB, the FGS edge-removal sweeps) instead of
// being rebuilt per call. Its memo is a fresh countcache.NewMemo. Testers
// that already carry a provider — or have no provider slot (MIT, Shuffle,
// wrappers) — are returned unchanged.
func SharedProvider(ctx context.Context, t Tester, rel source.Relation) (Tester, error) {
	switch v := t.(type) {
	case ChiSquare:
		if v.Provider != nil {
			return t, nil
		}
		p, err := NewProvider(ctx, rel, v.Est, countcache.NewMemo())
		if err != nil {
			return nil, err
		}
		v.Provider = p
		return v, nil
	case HyMIT:
		if v.Provider != nil {
			return t, nil
		}
		p, err := NewProvider(ctx, rel, v.Est, countcache.NewMemo())
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
// order, on the first term the memo misses, and derives each other missed
// term by marginalizing it. Deriving is used only when a marginalization
// pass over the view costs no more than a pass over the rows — when the
// view holds at most NumRows cells; a larger (dense, mostly empty) view
// falls back to one tabulation per term. Derived terms are marginalized
// into a pooled pair of scratch views, so they allocate no views. The terms
// are asked of the memo in turn, so its tallies are those of asking for
// each term once and concurrent statements compute a shared term once, and
// the entropies are bit-identical to tabulating each term directly.
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
	var (
		buf    [5][16]int // constant capacities keep keeps and names off the heap
		names  [16]string
		h      [4]float64
		views  [4]*dataset.DenseCounts // views[2], xVZ, is tabulated on the first miss
		derive bool
		// Derived terms are projected into pooled scratch views: xZ into
		// the first, kept for Z, and VZ then Z into the second.
		scratch *[2]dataset.DenseCounts
	)
	defer func() {
		if scratch != nil {
			putScratch(scratch)
		}
	}()
	// The terms xZ, VZ, xVZ, Z as positions in xVZ; sorted, since xVZ is.
	keeps := [4][]int{
		without(buf[0][:0], k, iv...),
		without(buf[1][:0], k, ix),
		without(buf[2][:0], k),
		without(buf[3][:0], k, append(iv, ix)...),
	}
	for i, keep := range keeps {
		if len(keep) == 0 {
			continue // H(∅) = 0
		}
		attrs := names[:0]
		for _, pos := range keep {
			attrs = append(attrs, xyz[pos])
		}
		s, err := p.cached(ctx, attrs, func() (entropyStat, error) {
			if views[2] == nil {
				dc, err := source.Tabulate(ctx, p.rel, xyz)
				if err != nil {
					return entropyStat{}, err
				}
				views[2], derive = dc, len(dc.CellCounts()) <= p.n
			}
			var err error
			switch {
			case i == 2:
			case !derive:
				views[i], err = source.Tabulate(ctx, p.rel, slices.Clone(attrs))
			default:
				if scratch == nil {
					scratch = getScratch()
				}
				from, to := views[2], &scratch[min(i, 1)]
				if i == 3 && views[0] != nil {
					// Z is the smaller marginal of the xZ view already in hand.
					from, keep = views[0], without(buf[4][:0], len(keeps[0]), slices.Index(keeps[0], ix))
				}
				err = from.ProjectInto(to, keep)
				views[i] = to
			}
			if err != nil {
				return entropyStat{}, err
			}
			return p.statOf(views[i].CellCounts(), true), nil
		})
		if err != nil {
			return 0, err
		}
		h[i] = s.h
	}
	return stats.ConditionalMI(h[0], h[1], h[2], h[3]), nil
}

// maxScratchCells bounds the cells of a scratch view kept for reuse.
const maxScratchCells = 1 << 16

// scratchViews pools conditionalMI's pairs of scratch views.
var scratchViews = sync.Pool{New: func() any { return new([2]dataset.DenseCounts) }}

func getScratch() *[2]dataset.DenseCounts { return scratchViews.Get().(*[2]dataset.DenseCounts) }

// putScratch returns a pair to the pool unless a view grew too large to
// keep.
func putScratch(s *[2]dataset.DenseCounts) {
	if cap(s[0].CellCounts()) <= maxScratchCells && cap(s[1].CellCounts()) <= maxScratchCells {
		scratchViews.Put(s)
	}
}

// without appends the positions 0..n−1 except those in drop, in order, to
// keep.
func without(keep []int, n int, drop ...int) []int {
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
