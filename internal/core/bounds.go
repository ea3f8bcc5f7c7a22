package core

import (
	"context"
	"fmt"

	"hypdb/internal/query"
	"hypdb/source"
)

// BoundsResult brackets the causal effect across candidate adjustment sets.
type BoundsResult struct {
	// Lower and Upper are the minimum and maximum adjusted differences
	// (answer(T1) − answer(T0), first outcome, first context) across all
	// evaluated covariate subsets, including the empty set (the raw
	// difference).
	Lower, Upper float64
	// LowerSet and UpperSet are the subsets attaining the bounds.
	LowerSet, UpperSet []string
	// Sets is the number of adjustment sets evaluated; Skipped counts
	// subsets dropped because overlap failed everywhere.
	Sets    int
	Skipped int
}

// EffectBounds implements the extension the paper sketches at the end of
// Sec 4: when the treatment's parents cannot be identified from data (all
// parents are neighbors, or the Markov equivalence class is ambiguous), one
// can still "compute a set of potential parents of T and use them to
// establish a bound on causal effect" by adjusting for every subset of
// MB(T) − {Y} and reporting the range of estimates.
//
// candidates is typically the treatment's Markov boundary minus the
// outcomes (CDResult.Boundary filtered by the caller); at most 20 are
// accepted. The brackets cover the empty set, so the raw (unadjusted)
// difference is always inside [Lower, Upper].
func EffectBounds(ctx context.Context, rel source.Relation, q query.Query, candidates []string) (*BoundsResult, error) {
	if err := q.Validate(ctx, rel); err != nil {
		return nil, err
	}
	if len(candidates) > 20 {
		return nil, fmt.Errorf("core: %d candidates would enumerate 2^%d adjustment sets; trim them to at most 20",
			len(candidates), len(candidates))
	}

	res := &BoundsResult{}
	consider := func(diff float64, set []string) {
		copySet := append([]string(nil), set...)
		if res.Sets == 0 || diff < res.Lower {
			res.Lower, res.LowerSet = diff, copySet
		}
		if res.Sets == 0 || diff > res.Upper {
			res.Upper, res.UpperSet = diff, copySet
		}
		res.Sets++
	}

	// Empty set: the raw difference.
	ans, err := query.Run(ctx, rel, q)
	if err != nil {
		return nil, err
	}
	comps, err := ans.Compare()
	if err != nil {
		return nil, fmt.Errorf("core: effect bounds need a two-valued treatment: %w", err)
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("core: no comparable context in the query answer")
	}
	consider(comps[0].Diffs[0], nil)

	for size := 1; size <= len(candidates); size++ {
		err := forEachSubsetStr(candidates, size, func(s []string) (bool, error) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			rw, err := query.RewriteTotal(ctx, rel, q, s)
			if err != nil {
				res.Skipped++ // overlap failure: this adjustment set is unusable
				return true, nil
			}
			rcomps, err := rw.Compare()
			if err != nil || len(rcomps) == 0 {
				res.Skipped++
				return true, nil
			}
			consider(rcomps[0].Diffs[0], s)
			return true, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
