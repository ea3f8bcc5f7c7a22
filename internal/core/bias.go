package core

import (
	"context"
	"fmt"

	"hypdb/internal/dataset"
	"hypdb/internal/independence"
	"hypdb/source"
)

// BiasResult is the verdict of the balance test (Def 3.1) for one context
// Γi: the query is balanced w.r.t. V in Γi iff T ⊥⊥ V | Γi, i.e.
// I(T;V|Γi) = 0.
type BiasResult struct {
	// Context holds the grouping values defining Γi (empty when the query
	// has no group-by attributes beyond the treatment).
	Context []string `json:"context,omitempty"`
	// Variables is the set V tested: the covariates Z for total effect, or
	// Z ∪ M for direct effect (Sec 3.1).
	Variables []string `json:"variables"`
	// MI is Î(T;V|Γi).
	MI float64 `json:"mi"`
	// PValue (and its Monte-Carlo half-width, when applicable) of the
	// independence test.
	PValue   float64 `json:"p_value"`
	PValueCI float64 `json:"p_value_ci,omitempty"`
	// Biased is true when independence is rejected at the configured α.
	Biased bool `json:"biased"`
	// Rows is the context's population size.
	Rows int `json:"-"`
}

// TestBalance tests whether treatment ⊥⊥ variables holds on view (one
// context), optionally conditioning on extra attributes (used for the
// rewritten-query significance test I(Y;T|Z)). The variable set is tested
// jointly (independence.SetTester), entirely from the view's counts, so the
// test shares the view's count cache and memo (χ² entropies and test
// results) with every other test run on it.
func (c Config) TestBalance(ctx context.Context, view source.Relation, treatment string, variables, conditionOn []string) (independence.Result, error) {
	if len(variables) == 0 {
		return independence.Result{PValue: 1, Method: "trivial"}, nil
	}
	tester, err := c.tester(ctx, view, unionAttrs([]string{treatment}, variables, conditionOn))
	if err != nil {
		return independence.Result{}, err
	}
	return tester.TestSet(ctx, view, treatment, variables, conditionOn)
}

// DetectBias runs the Def 3.1 balance test per context: for each
// combination of grouping values xi it selects Γi = C ∧ (X = xi) and tests
// T ⊥⊥ V | Γi. With no groupings there is a single context (the WHERE
// population).
func DetectBias(ctx context.Context, rel source.Relation, treatment string, groupings, variables []string, cfg Config) ([]BiasResult, error) {
	if len(variables) == 0 {
		return nil, fmt.Errorf("core: bias detection needs a non-empty variable set V")
	}
	contexts, err := splitContexts(ctx, rel, groupings)
	if err != nil {
		return nil, err
	}
	var out []BiasResult
	for _, c := range contexts {
		res, err := cfg.TestBalance(ctx, c.view, treatment, variables, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, BiasResult{
			Context:   c.values,
			Variables: append([]string(nil), variables...),
			MI:        res.MI,
			PValue:    res.PValue,
			PValueCI:  res.PValueCI,
			Biased:    !independence.Decision(res, cfg.alpha()),
			Rows:      c.rows,
		})
	}
	return out, nil
}

// contextView is one Γi: the grouping values and the restricted relation
// they select.
type contextView struct {
	values []string
	view   source.Relation
	rows   int
}

// splitContexts partitions the relation by the grouping attributes via one
// group-by count and per-group restriction. With no groupings the whole
// relation is the single context. Contexts come back in sorted group-key
// order, matching the deterministic group-by ordering of the in-memory
// pipeline.
func splitContexts(ctx context.Context, rel source.Relation, groupings []string) ([]contextView, error) {
	if len(groupings) == 0 {
		n, err := rel.NumRows(ctx)
		if err != nil {
			return nil, err
		}
		return []contextView{{view: rel, rows: n}}, nil
	}
	dc, err := source.Tabulate(ctx, rel, groupings)
	if err != nil {
		return nil, err
	}
	dicts := make([][]string, len(groupings))
	for i, g := range groupings {
		dicts[i], err = rel.Labels(ctx, g)
		if err != nil {
			return nil, err
		}
	}
	groups := dc.GroupBy(len(groupings))
	out := make([]contextView, 0, len(groups))
	for _, grp := range groups {
		codes := grp.Key.Codes()
		values := make([]string, len(groupings))
		pred := make(dataset.And, len(groupings))
		for i, g := range groupings {
			values[i] = dicts[i][codes[i]]
			pred[i] = dataset.Eq{Attr: g, Value: values[i]}
		}
		view, err := rel.Restrict(ctx, pred)
		if err != nil {
			return nil, err
		}
		out = append(out, contextView{values: values, view: view, rows: grp.Total})
	}
	return out, nil
}
