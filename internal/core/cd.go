package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hypdb/internal/countcache"
	"hypdb/internal/hyperr"
	"hypdb/internal/independence"
	"hypdb/internal/markov"
	"hypdb/internal/pool"
	"hypdb/source"
)

// CDResult reports automatic covariate discovery for one target attribute.
type CDResult struct {
	// Target is the attribute whose parents were sought (the treatment T,
	// or an outcome Y when discovering mediators).
	Target string
	// Boundary is the learned Markov boundary MB(Target).
	Boundary []string
	// Parents is the discovered parent set PA_Target — the covariates when
	// Target is the treatment (Prop 2.3).
	Parents []string
	// CandidateParents is the phase I output C (parents plus possibly
	// parents of children), before phase II pruning.
	CandidateParents []string
	// UsedFallback is set when CD found no parents and fell back to
	// Z = MB(T) − outcomes (the paper's single-parent fallback, Sec 4).
	UsedFallback bool
	// Boundaries holds MB(Z) for each Z in the target's boundary.
	Boundaries map[string][]string
	// Tests counts all independence tests performed (the CDD performance
	// measure of Fig 6a); TestsBoundary is the share spent learning Markov
	// boundaries with Grow-Shrink (work every boundary-based CDD method
	// shares), and TestsPhases the share spent in the CD-specific phase I
	// and phase II searches.
	Tests         int
	TestsBoundary int
	TestsPhases   int
}

// DiscoverCovariates runs the CD algorithm (Alg 1) for target over the
// candidate attributes: it learns MB(target) and the boundaries of its
// members with Grow-Shrink, then identifies the parents by the two-phase
// collider search of Prop 4.1. The outcomes list is used only by the
// fallback (excluded from the fallback covariate set).
func DiscoverCovariates(ctx context.Context, rel source.Relation, target string, candidates, outcomes []string, cfg Config) (*CDResult, error) {
	if !rel.HasAttribute(target) {
		return nil, fmt.Errorf("core: no target column %q: %w", target, hyperr.ErrUnknownAttribute)
	}
	res := &CDResult{Target: target, Boundaries: make(map[string][]string)}
	// Every test below is read through Decision and MI only.
	cfg = cfg.verdictOnly()

	// One-query-per-closure pushdown (Sec 6 / multi-query optimization):
	// when the backend carries a marginalization-serving count cache, fetch
	// the finest group-by over the CD attribute closure once; every count
	// the boundary search and the phase I/II subset enumerations request is
	// then answered by marginalizing it client-side. Closures whose cell
	// space exceeds the budget are skipped inside Prime (per-subset counts
	// then reach the backend as before).
	if p, ok := rel.(*countcache.Relation); ok && !cfg.SkipPrime {
		closure := unionAttrs([]string{target}, candidates, nil)
		if err := p.Prime(ctx, closure, 0); err != nil {
			return nil, err
		}
	}

	// Markov boundaries are learned over all candidates; materialization
	// does not apply (the attribute set is unbounded), so the hint is nil.
	mbTester, err := cfg.tester(ctx, rel, nil)
	if err != nil {
		return nil, err
	}
	// Every search below is served from the view's memo when an identical
	// search already completed on it: audits and batches run the same
	// boundary and phase searches for many queries.
	sm := cfg.searchMemo(rel)
	boundary := func(ctx context.Context, target string, candidates []string) ([]string, int, error) {
		ordered, _, err := runSearch(sm, searchOrder, func() ([]string, int, error) {
			ordered, err := markov.OrderByAssociation(ctx, rel, target, candidates)
			return ordered, 0, err
		}, []string{target}, candidates)
		if err != nil {
			return nil, 0, err
		}
		return runSearch(sm, searchGrowShrink, func() ([]string, int, error) {
			counter := &independence.Counter{Inner: mbTester}
			mcfg := markov.Config{Tester: counter, Alpha: cfg.alpha(), MaxBoundary: cfg.MaxBoundary}
			mb, err := markov.GrowShrinkOrdered(ctx, rel, target, ordered, mcfg)
			return mb, counter.Calls(), err
		}, []string{target}, ordered)
	}

	mbT, nTests, err := boundary(ctx, target, candidates)
	if err != nil {
		return nil, err
	}
	res.Boundary = slices.Clone(mbT)
	res.TestsBoundary = nTests
	// The members' boundary searches are independent: under Parallel they
	// run concurrently, sharing the view's test memo.
	mbZs := make([][]string, len(mbT))
	mbTests := make([]int, len(mbT))
	err = pool.Run(ctx, len(mbT), cfg.workers(), func(ctx context.Context, i int) error {
		cands := excludeStr(candidates, mbT[i])
		if !containsStr(cands, target) {
			cands = append(cands, target)
		}
		var err error
		mbZs[i], mbTests[i], err = boundary(ctx, mbT[i], cands)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, z := range mbT {
		res.Boundaries[z] = slices.Clone(mbZs[i])
		res.TestsBoundary += mbTests[i]
	}
	res.Tests = res.TestsBoundary

	if len(mbT) == 0 {
		return res, nil // no dependencies at all: no covariates
	}

	// Phase I (Alg 1 lines 3–7): collect Z ∈ MB(T) such that some
	// W ∈ MB(T) and S ⊆ MB(Z) − {W, T} witness T as a collider:
	// (Z ⊥⊥ W | S) ∧ (Z ⊥̸⊥ W | S ∪ {T}).
	inC := make(map[string]bool)
	for i, z := range mbT {
		if inC[z] {
			continue
		}
		witness, nTests, err := runSearch(sm, searchPhaseI, func() (string, int, error) {
			return cfg.phaseIWitness(ctx, rel, target, z, mbT, mbZs[i])
		}, []string{target, z}, mbT, mbZs[i])
		res.Tests += nTests
		res.TestsPhases += nTests
		if err != nil {
			return nil, err
		}
		if witness != "" {
			inC[z] = true
			inC[witness] = true
		}
	}
	res.CandidateParents = sortedKeys(inC)

	// Phase II (Alg 1 lines 9–11): remove members separable from T by some
	// subset of MB(T) — those are parents of children, not parents.
	parents := make(map[string]bool, len(inC))
	for c := range inC {
		parents[c] = true
	}
	for _, c := range res.CandidateParents {
		separable, nTests, err := runSearch(sm, searchPhaseII, func() (bool, int, error) {
			return cfg.phaseIISeparable(ctx, rel, target, c, mbT)
		}, []string{target, c}, mbT)
		res.Tests += nTests
		res.TestsPhases += nTests
		if err != nil {
			return nil, err
		}
		if separable {
			delete(parents, c)
		}
	}
	res.Parents = sortedKeys(parents)

	// Fallback (Sec 4): when the assumption "T has two non-neighbor
	// parents" fails, CD finds nothing; use Z = MB(T) − outcomes.
	//
	// Refinement: if no outcome belongs to MB(T), then MB(T) screens the
	// target from every outcome (T ⊥⊥ Y | MB(T) by definition), so
	// adjusting for the fallback set would force the estimated effect to
	// zero — the boundary members are mediator-shaped, not
	// confounder-shaped (e.g. Income → Distance → Price in StaplesData).
	// In that case the fallback yields no covariates and the boundary
	// members surface through mediator discovery instead. The two cases
	// are Markov-equivalent in general, so this is a documented policy,
	// not an identification claim.
	if len(res.Parents) == 0 && !cfg.DisableFallback {
		res.UsedFallback = true
		outcomeInMB := len(outcomes) == 0
		for _, y := range outcomes {
			if containsStr(mbT, y) {
				outcomeInMB = true
				break
			}
		}
		if outcomeInMB {
			for _, z := range mbT {
				if !containsStr(outcomes, z) {
					res.Parents = append(res.Parents, z)
				}
			}
			sort.Strings(res.Parents)
		}
	}
	return res, nil
}

// The discovery searches a view's memo keeps (family countcache.Searches),
// each under a key naming its kind, the settings prefix and its arguments.
const (
	searchOrder      byte = 'o' // markov.OrderByAssociation(target, candidates)
	searchGrowShrink byte = 'g' // markov.GrowShrinkOrdered(target, ordered)
	searchPhaseI     byte = 'w' // phaseIWitness(target, z, MB(T), MB(z))
	searchPhaseII    byte = 's' // phaseIISeparable(target, c, MB(T))
)

// searchMemo serves one covariate discovery's searches from its view's
// result memo. memo is nil when the view has none or the entropy cache is
// off; every search then runs. prefix renders the settings a search result
// depends on.
type searchMemo struct {
	memo   *countcache.Memo
	prefix string
}

// searchMemo returns the search memo of view.
func (c Config) searchMemo(view source.Relation) searchMemo {
	m := c.memo(view)
	if m == nil {
		return searchMemo{}
	}
	return searchMemo{memo: m, prefix: fmt.Sprintf("%s%g|%d|%d|", c.testFingerprint(), c.alpha(), c.MaxBoundary, c.MaxCondSet)}
}

// searched is a completed search kept in a memo: its result and the number
// of tests it requested.
type searched[T any] struct {
	v     T
	tests int
}

// runSearch returns the result of one search and the number of tests it
// requested. A completed run of the same search (kind and args) kept in
// sm's memo is served with the count that run requested, so test counts do
// not depend on the memo; otherwise run executes and, when it succeeds, is
// kept. A twin search still in flight is not waited for: concurrent twins
// each run, sharing their tests through the test memo. Kept results are
// shared, so callers must not modify them.
func runSearch[T any](sm searchMemo, kind byte, run func() (T, int, error), args ...[]string) (T, int, error) {
	if sm.memo == nil {
		return run()
	}
	n := 1 + len(sm.prefix)
	for _, list := range args {
		n += 4 + attrsLen(list)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(kind)
	b.WriteString(sm.prefix)
	for _, list := range args {
		b.WriteString(strconv.Itoa(len(list)))
		b.WriteByte('|')
		for _, a := range list {
			writeAttr(&b, a)
		}
	}
	key := b.String()
	if v, ok := sm.memo.Load(countcache.Searches, key); ok {
		s := v.(searched[T])
		return s.v, s.tests, nil
	}
	v, n, err := run()
	if err == nil {
		sm.memo.Store(countcache.Searches, key, searched[T]{v, n})
	}
	return v, n, err
}

// phaseIWitness searches for a W certifying condition (a) of Prop 4.1 for
// z; it returns the witness name (or "") and the number of tests used.
func (c Config) phaseIWitness(ctx context.Context, rel source.Relation, target, z string, mbT, mbZ []string) (string, int, error) {
	base := excludeStr(mbZ, target)
	// All tests in this phase touch attributes within
	// {z, target} ∪ MB(z) ∪ MB(T): materialize their joint once (Sec 6).
	hint := unionAttrs([]string{z, target}, base, mbT)
	tester, err := c.tester(ctx, rel, hint)
	if err != nil {
		return "", 0, err
	}
	counter := &independence.Counter{Inner: tester}
	alpha := c.alpha()

	limit := len(base)
	if c.MaxCondSet > 0 && c.MaxCondSet < limit {
		limit = c.MaxCondSet
	}
	witness := ""
	for size := 0; size <= limit && witness == ""; size++ {
		err := forEachSubsetStr(base, size, func(s []string) (bool, error) {
			for _, w := range mbT {
				if w == z || containsStr(s, w) {
					continue
				}
				r1, err := counter.Test(ctx, rel, z, w, s)
				if err != nil {
					return false, err
				}
				if !independence.Decision(r1, alpha) {
					continue // Z ⊥̸ W | S: not separated
				}
				r2, err := counter.Test(ctx, rel, z, w, append(append([]string(nil), s...), target))
				if err != nil {
					return false, err
				}
				if !independence.Decision(r2, alpha) {
					witness = w
					return false, nil // found: stop enumeration
				}
			}
			return true, nil
		})
		if err != nil {
			return "", counter.Calls(), err
		}
	}
	return witness, counter.Calls(), nil
}

// phaseIISeparable reports whether some S ⊆ MB(T) − {c} renders T ⊥⊥ c | S.
func (c Config) phaseIISeparable(ctx context.Context, rel source.Relation, target, cand string, mbT []string) (bool, int, error) {
	base := excludeStr(mbT, cand)
	hint := unionAttrs([]string{cand, target}, base, nil)
	tester, err := c.tester(ctx, rel, hint)
	if err != nil {
		return false, 0, err
	}
	counter := &independence.Counter{Inner: tester}
	alpha := c.alpha()

	limit := len(base)
	if c.MaxCondSet > 0 && c.MaxCondSet < limit {
		limit = c.MaxCondSet
	}
	separable := false
	for size := 0; size <= limit && !separable; size++ {
		err := forEachSubsetStr(base, size, func(s []string) (bool, error) {
			r, err := counter.Test(ctx, rel, target, cand, s)
			if err != nil {
				return false, err
			}
			if independence.Decision(r, alpha) {
				separable = true
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return false, counter.Calls(), err
		}
	}
	return separable, counter.Calls(), nil
}

// forEachSubsetStr enumerates size-k subsets; the callback returns
// (continue, error).
func forEachSubsetStr(items []string, k int, f func([]string) (bool, error)) error {
	if k > len(items) {
		return nil
	}
	if k == 0 {
		_, err := f(nil)
		return err
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]string, k)
	for {
		for i, v := range idx {
			buf[i] = items[v]
		}
		cont, err := f(buf)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		i := k - 1
		for i >= 0 && idx[i] == len(items)-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func excludeStr(items []string, drop string) []string {
	out := make([]string, 0, len(items))
	for _, x := range items {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

func containsStr(items []string, x string) bool {
	for _, v := range items {
		if v == x {
			return true
		}
	}
	return false
}

func unionAttrs(lists ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range lists {
		for _, x := range l {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
