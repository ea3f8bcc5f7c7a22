package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hypdb/internal/independence"
	"hypdb/internal/query"
	"hypdb/source"
)

// Options extends Config with report-shaping knobs.
type Options struct {
	Config
	// FineAttrs is how many top-responsibility attributes receive
	// fine-grained explanations; zero means 2 (the paper's figures show
	// the top two).
	FineAttrs int
	// FineTopK is the number of triples per fine-grained explanation; zero
	// means 2 ("top-two" in Fig 1d).
	FineTopK int
	// Baseline fixes the treatment value whose mediator distribution the
	// direct-effect rewriting holds constant; empty selects the smallest.
	Baseline string
	// SkipDirect disables mediator discovery and the direct-effect
	// rewriting.
	SkipDirect bool
	// Covariates overrides automatic covariate discovery (used by the
	// Fig 5a experiment, where the covariate set is fixed).
	Covariates []string
	// Mediators overrides automatic mediator discovery.
	Mediators []string
	// Discover, when non-nil, replaces DiscoverCovariates for every
	// covariate- and mediator-discovery call of the pipeline. Session
	// handles install a memoizing wrapper here so repeated queries share
	// CD results (the multi-query sharing of Sec 6).
	Discover func(ctx context.Context, view source.Relation, target string, candidates, outcomes []string, cfg Config) (*CDResult, error)
}

// discover resolves the CD entry point, defaulting to DiscoverCovariates.
func (o Options) discover(ctx context.Context, view source.Relation, target string, candidates, outcomes []string, cfg Config) (*CDResult, error) {
	if o.Discover != nil {
		return o.Discover(ctx, view, target, candidates, outcomes, cfg)
	}
	return DiscoverCovariates(ctx, view, target, candidates, outcomes, cfg)
}

func (o Options) fineAttrs() int {
	if o.FineAttrs <= 0 {
		return 2
	}
	return o.FineAttrs
}

func (o Options) fineTopK() int {
	if o.FineTopK <= 0 {
		return 2
	}
	return o.FineTopK
}

// ComparisonReport pairs a query comparison with per-outcome significance.
type ComparisonReport struct {
	query.Comparison
	// PValues[i] is the p-value of the hypothesis "the i-th outcome's
	// difference is zero" (I(T;Y|…) = 0, tested with the configured
	// method); PValueCIs carries the Monte-Carlo half-width when
	// applicable, and Methods names the procedure that produced each
	// p-value (e.g. "hymit(chi2)" — deterministic — vs "hymit(mit)" —
	// Monte-Carlo).
	PValues   []float64 `json:"p_values,omitempty"`
	PValueCIs []float64 `json:"p_value_cis,omitempty"`
	Methods   []string  `json:"methods,omitempty"`
}

// Timing records the per-phase wall-clock cost (the columns of Table 1).
type Timing struct {
	Detect  time.Duration
	Explain time.Duration
	Resolve time.Duration
}

// Report is the complete output of Analyze: everything HypDB shows the
// analyst in Figs 1, 3 and 4.
type Report struct {
	Query        query.Query
	OriginalSQL  string
	RewrittenSQL string

	// Answer and OriginalComparisons reproduce the biased query's output.
	Answer              *query.Answer
	OriginalComparisons []ComparisonReport

	// CD is the covariate discovery result for the treatment; MediatorCD
	// maps each outcome to its parent discovery.
	CD         *CDResult
	MediatorCD map[string]*CDResult

	// Covariates and Mediators are the final adjustment sets.
	Covariates []string
	Mediators  []string

	// DroppedAttrs lists attributes excluded for logical dependencies.
	DroppedAttrs []Dropped

	// BiasTotal and BiasDirect are the per-context balance verdicts w.r.t.
	// Z and Z ∪ M respectively.
	BiasTotal  []BiasResult
	BiasDirect []BiasResult

	// Coarse and Fine are the explanations (Sec 3.2). Fine maps a
	// top-responsibility attribute to its top-k triples.
	Coarse []Responsibility
	Fine   map[string][]FineExplanation

	// RewrittenTotal / RewrittenDirect are the bias-removing answers with
	// their significance.
	RewrittenTotal    *query.Rewritten
	TotalComparisons  []ComparisonReport
	RewrittenDirect   *query.Rewritten
	DirectComparisons []ComparisonReport

	Timing Timing

	// Degraded is true when the analysis read counts with at least one
	// remote shard missing (degraded reads over a remote-sharded
	// relation): the statistics may rest on partial data and the report
	// must be treated as stale. Set by the facade, which watches the
	// storage layer's degraded-serve counter across the run.
	Degraded bool
}

// Analyze runs the full HypDB pipeline on a query: detect bias, explain it,
// and resolve it by rewriting (Sec 3). The three phases are timed
// separately, reproducing the Table 1 measurements.
func Analyze(ctx context.Context, rel source.Relation, q query.Query, opts Options) (*Report, error) {
	view, err := q.View(ctx, rel)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Query:       q,
		OriginalSQL: q.SQL(),
		MediatorCD:  make(map[string]*CDResult),
		Fine:        make(map[string][]FineExplanation),
	}

	// Original (biased) answers and their significance.
	rep.Answer, err = query.Run(ctx, rel, q)
	if err != nil {
		return nil, err
	}
	rep.OriginalComparisons, err = opts.compareWithSignificance(ctx, view, q, rep.Answer.Compare, nil)
	if err != nil {
		return nil, err
	}

	// ---- Detection -------------------------------------------------------
	detectStart := time.Now()
	candidates := candidateAttrs(rel, q)
	kept, dropped, err := opts.prepare(ctx, view, q.Treatment, candidates)
	if err != nil {
		return nil, err
	}
	rep.DroppedAttrs = dropped

	// The treatment's covariate discovery and each outcome's mediator
	// discovery are independent searches over one view: under Parallel
	// they run concurrently, sharing the view's test memo.
	type search struct {
		target          string
		cands, outcomes []string
		res             *CDResult
	}
	var searches []search
	if len(opts.Covariates) > 0 {
		rep.Covariates = append([]string(nil), opts.Covariates...)
	} else {
		// The outcomes participate in boundary discovery (Y is a child of T
		// and belongs to MB(T)); the CD algorithm and its fallback keep
		// them out of the parent set.
		cdCands := append(append([]string(nil), kept...), q.Outcomes...)
		searches = append(searches, search{target: q.Treatment, cands: cdCands, outcomes: q.Outcomes})
	}
	mediate := false
	switch {
	case opts.SkipDirect:
	case len(opts.Mediators) > 0:
		rep.Mediators = append([]string(nil), opts.Mediators...)
	default:
		mediate = true
		for _, y := range q.Outcomes {
			cands := append(append([]string(nil), kept...), q.Treatment)
			searches = append(searches, search{target: y, cands: cands})
		}
	}
	err = RunPool(ctx, len(searches), opts.workers(), func(ctx context.Context, i int) error {
		s := &searches[i]
		var err error
		s.res, err = opts.discover(ctx, view, s.target, s.cands, s.outcomes, opts.Config)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(opts.Covariates) == 0 {
		rep.CD, searches = searches[0].res, searches[1:]
		for _, p := range rep.CD.Parents {
			if !containsStr(q.Outcomes, p) {
				rep.Covariates = append(rep.Covariates, p)
			}
		}
	}
	if mediate {
		mediatorSet := map[string]bool{}
		for _, s := range searches {
			rep.MediatorCD[s.target] = s.res
			for _, p := range s.res.Parents {
				if p != q.Treatment && !containsStr(rep.Covariates, p) && !containsStr(q.Outcomes, p) {
					mediatorSet[p] = true
				}
			}
		}
		rep.Mediators = sortedKeys(mediatorSet)
	}

	if len(rep.Covariates) > 0 {
		rep.BiasTotal, err = DetectBias(ctx, view, q.Treatment, q.Groupings, rep.Covariates, opts.Config)
		if err != nil {
			return nil, err
		}
	}
	if vd := unionAttrs(rep.Covariates, rep.Mediators, nil); len(vd) > 0 && len(rep.Mediators) > 0 {
		rep.BiasDirect, err = DetectBias(ctx, view, q.Treatment, q.Groupings, vd, opts.Config)
		if err != nil {
			return nil, err
		}
	}
	rep.Timing.Detect = time.Since(detectStart)

	// ---- Explanation -----------------------------------------------------
	explainStart := time.Now()
	variables := unionAttrs(rep.Covariates, rep.Mediators, nil)
	if len(variables) > 0 {
		rep.Coarse, err = ExplainCoarse(ctx, view, q.Treatment, variables, opts.Config)
		if err != nil {
			return nil, err
		}
		top := opts.fineAttrs()
		if top > len(rep.Coarse) {
			top = len(rep.Coarse)
		}
		for i := 0; i < top; i++ {
			attr := rep.Coarse[i].Attr
			fine, err := ExplainFine(ctx, view, q.Treatment, q.Outcomes[0], attr, opts.fineTopK(), opts.Config)
			if err != nil {
				return nil, err
			}
			rep.Fine[attr] = fine
		}
	}
	rep.Timing.Explain = time.Since(explainStart)

	// ---- Resolution ------------------------------------------------------
	resolveStart := time.Now()
	if len(rep.Covariates) > 0 {
		rep.RewrittenSQL = q.RewrittenSQL(rep.Covariates)
		rep.RewrittenTotal, err = query.RewriteTotal(ctx, rel, q, rep.Covariates)
		if err != nil {
			return nil, fmt.Errorf("core: total-effect rewriting: %w", err)
		}
		rep.TotalComparisons, err = opts.compareWithSignificance(ctx, view, q, rep.RewrittenTotal.Compare, rep.Covariates)
		if err != nil {
			return nil, err
		}
	}
	if len(rep.Mediators) > 0 {
		rep.RewrittenDirect, err = query.RewriteDirect(ctx, rel, q, rep.Covariates, rep.Mediators, opts.Baseline)
		if err != nil {
			return nil, fmt.Errorf("core: direct-effect rewriting: %w", err)
		}
		rep.DirectComparisons, err = opts.compareWithSignificance(
			ctx, view, q, rep.RewrittenDirect.Compare, unionAttrs(rep.Covariates, rep.Mediators, nil))
		if err != nil {
			return nil, err
		}
	}
	rep.Timing.Resolve = time.Since(resolveStart)
	return rep, nil
}

// compareWithSignificance pairs comparisons from compare() with per-outcome
// p-values: the difference for outcome Y in context Γi is zero iff
// I(T;Y|cond,Γi) = 0 (Sec 7.1), tested with the configured method.
func (o Options) compareWithSignificance(ctx context.Context, view source.Relation, q query.Query, compare func() ([]query.Comparison, error), cond []string) ([]ComparisonReport, error) {
	comps, err := compare()
	if err != nil {
		// Non-binary treatments have answers but no single comparison; the
		// report simply omits the diff rows.
		return nil, nil
	}
	contexts, err := splitContexts(ctx, view, q.Groupings)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]source.Relation, len(contexts))
	for _, c := range contexts {
		byKey[strings.Join(c.values, "\x00")] = c.view
	}
	out := make([]ComparisonReport, 0, len(comps))
	for _, comp := range comps {
		ctxView, ok := byKey[strings.Join(comp.Context, "\x00")]
		if !ok {
			continue
		}
		cr := ComparisonReport{Comparison: comp}
		for _, y := range q.Outcomes {
			res, err := o.significance(ctx, ctxView, q.Treatment, y, cond)
			if err != nil {
				return nil, err
			}
			cr.PValues = append(cr.PValues, res.PValue)
			cr.PValueCIs = append(cr.PValueCIs, res.PValueCI)
			cr.Methods = append(cr.Methods, res.Method)
		}
		out = append(out, cr)
	}
	return out, nil
}

// significance tests I(T;Y|cond) on the context view.
func (o Options) significance(ctx context.Context, ctxView source.Relation, treatment, outcome string, cond []string) (independence.Result, error) {
	hint := unionAttrs([]string{treatment, outcome}, cond, nil)
	tester, err := o.tester(ctx, ctxView, hint)
	if err != nil {
		return independence.Result{}, err
	}
	return tester.Test(ctx, ctxView, treatment, outcome, cond)
}

// candidateAttrs returns the default covariate candidates: every attribute
// except the treatment, outcomes and groupings.
func candidateAttrs(rel source.Relation, q query.Query) []string {
	skip := map[string]bool{q.Treatment: true}
	for _, y := range q.Outcomes {
		skip[y] = true
	}
	for _, x := range q.Groupings {
		skip[x] = true
	}
	var out []string
	for _, a := range rel.Attributes() {
		if !skip[a] {
			out = append(out, a)
		}
	}
	return out
}
