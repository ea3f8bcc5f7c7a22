// Package markov implements data-driven Markov-boundary discovery: the
// Grow-Shrink algorithm (Margaritis & Thrun, cited as [28]) that HypDB uses
// to bound the CD algorithm's search (Sec 4), and Incremental Association
// (IAMB, [58]), one of the baselines in the Fig 5 quality comparison.
//
// Both algorithms are parameterized by an independence.Tester so they can
// run against χ², MIT, HyMIT, or a ground-truth d-separation oracle, and
// consume a source.Relation, so they run unchanged against any counts-
// answering storage backend.
package markov

import (
	"context"
	"fmt"
	"sort"

	"hypdb/internal/hyperr"
	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source"
)

// Config controls boundary discovery.
type Config struct {
	// Tester decides conditional independence; required.
	Tester independence.Tester
	// Alpha is the significance level; zero means independence.DefaultAlpha.
	Alpha float64
	// MaxBoundary caps the boundary size during the grow phase as a
	// safeguard against runaway growth on noisy data; zero means no cap.
	MaxBoundary int
}

func (c Config) alpha() float64 {
	if c.Alpha <= 0 {
		return independence.DefaultAlpha
	}
	return c.Alpha
}

// GrowShrink computes the Markov boundary of target among candidates using
// the two-phase Grow-Shrink algorithm. Candidates are visited in order of
// decreasing marginal association with the target (the standard GS
// heuristic), which both speeds convergence and improves robustness. It is
// OrderByAssociation followed by GrowShrinkOrdered.
func GrowShrink(ctx context.Context, rel source.Relation, target string, candidates []string, cfg Config) ([]string, error) {
	ordered, err := OrderByAssociation(ctx, rel, target, candidates)
	if err != nil {
		return nil, err
	}
	return GrowShrinkOrdered(ctx, rel, target, ordered, cfg)
}

// GrowShrinkOrdered runs Grow-Shrink's grow and shrink phases, visiting
// the candidates in the given order: ordered is OrderByAssociation's
// output, a list of the relation's attributes without the target or
// duplicates. The boundary is returned sorted.
func GrowShrinkOrdered(ctx context.Context, rel source.Relation, target string, ordered []string, cfg Config) ([]string, error) {
	if cfg.Tester == nil {
		return nil, fmt.Errorf("markov: nil tester")
	}
	// Bind provider-less χ²-style testers to one shared cached provider for
	// the whole grow/shrink search, so the entropies of overlapping
	// conditioning sets are computed once (Sec 6 entropy caching).
	var err error
	cfg.Tester, err = independence.SharedProvider(ctx, cfg.Tester, rel)
	if err != nil {
		return nil, err
	}
	alpha := cfg.alpha()

	// Grow: admit any candidate dependent on the target given the current
	// boundary; repeat until a full pass admits nothing.
	boundary := []string{}
	inB := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, x := range ordered {
			if inB[x] {
				continue
			}
			if cfg.MaxBoundary > 0 && len(boundary) >= cfg.MaxBoundary {
				break
			}
			res, err := cfg.Tester.Test(ctx, rel, target, x, boundary)
			if err != nil {
				return nil, err
			}
			if !independence.Decision(res, alpha) {
				boundary = append(boundary, x)
				inB[x] = true
				changed = true
			}
		}
	}

	// Shrink: remove any member independent of the target given the rest.
	return shrink(ctx, rel, target, boundary, cfg)
}

// IAMB computes the Markov boundary with the Incremental Association
// algorithm: the grow phase admits, per iteration, the single candidate
// with the strongest association (largest estimated CMI) with the target
// given the current boundary, provided the dependence is significant. The
// shrink phase is identical to Grow-Shrink's.
func IAMB(ctx context.Context, rel source.Relation, target string, candidates []string, cfg Config) ([]string, error) {
	if cfg.Tester == nil {
		return nil, fmt.Errorf("markov: nil tester")
	}
	if !rel.HasAttribute(target) {
		return nil, fmt.Errorf("markov: no column %q: %w", target, hyperr.ErrUnknownAttribute)
	}
	cands, err := validCandidates(rel, target, candidates)
	if err != nil {
		return nil, err
	}
	cfg.Tester, err = independence.SharedProvider(ctx, cfg.Tester, rel)
	if err != nil {
		return nil, err
	}
	alpha := cfg.alpha()

	boundary := []string{}
	inB := make(map[string]bool)
	for {
		if cfg.MaxBoundary > 0 && len(boundary) >= cfg.MaxBoundary {
			break
		}
		best := ""
		bestMI := 0.0
		for _, x := range cands {
			if inB[x] {
				continue
			}
			res, err := cfg.Tester.Test(ctx, rel, target, x, boundary)
			if err != nil {
				return nil, err
			}
			if !independence.Decision(res, alpha) && res.MI > bestMI {
				best, bestMI = x, res.MI
			}
		}
		if best == "" {
			break
		}
		boundary = append(boundary, best)
		inB[best] = true
	}

	return shrink(ctx, rel, target, boundary, cfg)
}

// shrink removes boundary members that are independent of the target given
// the remaining members, iterating to a fixed point.
func shrink(ctx context.Context, rel source.Relation, target string, boundary []string, cfg Config) ([]string, error) {
	alpha := cfg.alpha()
	out := append([]string(nil), boundary...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(out); i++ {
			rest := make([]string, 0, len(out)-1)
			rest = append(rest, out[:i]...)
			rest = append(rest, out[i+1:]...)
			res, err := cfg.Tester.Test(ctx, rel, target, out[i], rest)
			if err != nil {
				return nil, err
			}
			if independence.Decision(res, alpha) {
				out = append(out[:i], out[i+1:]...)
				changed = true
				i--
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// validCandidates filters out the target itself and verifies existence.
func validCandidates(rel source.Relation, target string, candidates []string) ([]string, error) {
	out := make([]string, 0, len(candidates))
	seen := make(map[string]bool, len(candidates))
	for _, c := range candidates {
		if c == target {
			continue
		}
		if seen[c] {
			return nil, fmt.Errorf("markov: duplicate candidate %q", c)
		}
		seen[c] = true
		if !rel.HasAttribute(c) {
			return nil, fmt.Errorf("markov: no column %q: %w", c, hyperr.ErrUnknownAttribute)
		}
		out = append(out, c)
	}
	return out, nil
}

// OrderByAssociation checks target and candidates against rel and returns
// the candidates other than the target sorted by decreasing estimated
// marginal mutual information with the target (ties keep the given
// order), computed from one pairwise count query per candidate. It runs
// no independence test.
func OrderByAssociation(ctx context.Context, rel source.Relation, target string, candidates []string) ([]string, error) {
	if !rel.HasAttribute(target) {
		return nil, fmt.Errorf("markov: no column %q: %w", target, hyperr.ErrUnknownAttribute)
	}
	candidates, err := validCandidates(rel, target, candidates)
	if err != nil {
		return nil, err
	}
	n, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	mis := make([]float64, len(candidates))
	for i, c := range candidates {
		dc, err := source.Tabulate(ctx, rel, []string{target, c})
		if err != nil {
			return nil, err
		}
		// H(T) and H(C) from marginals folded out of the joint (in code
		// order, matching the code-vector estimator exactly), H(TC) from
		// the sorted non-zero multiset.
		ht := stats.EntropyCounts(dc.Marginal(0), n, stats.PlugIn)
		hc := stats.EntropyCounts(dc.Marginal(1), n, stats.PlugIn)
		mis[i] = ht + hc - stats.EntropyCountsStable(dc.CellCounts(), n, stats.PlugIn)
	}
	order := stats.RankDescending(mis)
	out := make([]string, len(candidates))
	for i, idx := range order {
		out[i] = candidates[idx]
	}
	return out, nil
}
