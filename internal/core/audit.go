package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/independence"
	"hypdb/internal/pool"
	"hypdb/internal/query"
	"hypdb/source"
)

// Audit default thresholds; AuditSpec fields of zero fall back to these.
const (
	// DefaultMinSupport is the minimum number of rows each compared
	// treatment group must have before a candidate query is analyzed.
	DefaultMinSupport = 50
	// DefaultMaxTreatmentCard is the widest active domain an attribute may
	// have and still be swept as a treatment (wider attributes are almost
	// never the axis an analyst compares along, and each extra value
	// dilutes the per-group support).
	DefaultMaxTreatmentCard = 10
	// DefaultMaxOutcomeCard is the widest active domain an attribute may
	// have and still be swept as an outcome.
	DefaultMaxOutcomeCard = 24
)

// AuditSpec configures a lattice-wide bias sweep: which attributes may play
// the treatment and outcome roles, the population restriction, and the
// support/cardinality filters that prune the candidate space before any
// statistical testing runs.
type AuditSpec struct {
	// Treatments restricts the treatment-role candidates; empty sweeps
	// every attribute passing the cardinality filter.
	Treatments []string
	// Outcomes restricts the outcome-role candidates; empty sweeps every
	// numeric attribute passing the cardinality filter.
	Outcomes []string
	// Where restricts the audited population; nil audits everything.
	Where dataset.Predicate
	// MinSupport is the minimum row count of each compared treatment
	// group; candidates below it are pruned (and reported as pruned)
	// before any permutation test runs. Zero means DefaultMinSupport.
	MinSupport int
	// MaxTreatmentCard / MaxOutcomeCard bound the active-domain size of
	// treatment and outcome candidates; zero means the package defaults.
	MaxTreatmentCard int
	MaxOutcomeCard   int
	// TopK caps the ranked findings list; zero keeps every biased query.
	TopK int
	// Workers bounds the sweep's worker pool; zero means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives (done, total) after each candidate
	// completes, plus one initial (0, total) call. Calls are serialized.
	Progress func(done, total int)
}

func (s AuditSpec) minSupport() int {
	if s.MinSupport > 0 {
		return s.MinSupport
	}
	return DefaultMinSupport
}

func (s AuditSpec) maxTreatmentCard() int {
	if s.MaxTreatmentCard > 0 {
		return s.MaxTreatmentCard
	}
	return DefaultMaxTreatmentCard
}

func (s AuditSpec) maxOutcomeCard() int {
	if s.MaxOutcomeCard > 0 {
		return s.MaxOutcomeCard
	}
	return DefaultMaxOutcomeCard
}

func (s AuditSpec) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AuditExcluded records an attribute that was kept out of a sweep role,
// with the reason — the audit never drops anything silently.
type AuditExcluded struct {
	// Attr is the attribute; Role is "treatment" or "outcome".
	Attr string `json:"attr"`
	Role string `json:"role"`
	// Reason is a human-readable explanation (cardinality bound,
	// non-numeric labels, constant column, ...).
	Reason string `json:"reason"`
}

// AuditPruned records a candidate (treatment, outcome) query excluded from
// evaluation by the support filter.
type AuditPruned struct {
	Treatment string `json:"treatment"`
	Outcome   string `json:"outcome"`
	// Reason explains the pruning; Support is the smaller compared-group
	// row count that fell below the threshold.
	Reason  string `json:"reason"`
	Support int    `json:"support"`
}

// AuditUnbiased records an evaluated candidate whose balance test did not
// reject independence (or that had no discovered covariates to test).
type AuditUnbiased struct {
	Treatment string `json:"treatment"`
	Outcome   string `json:"outcome"`
	// PValue is the balance-test p-value (1 when no covariates were
	// discovered, making the test trivial).
	PValue float64 `json:"p_value"`
	// Note explains trivial verdicts, e.g. "no covariates discovered".
	Note string `json:"note,omitempty"`
}

// AuditFinding is one biased candidate query of an audit sweep, with the
// evidence an analyst needs to triage it: the balance-test significance,
// the naive versus adjusted effect, and the responsible covariates.
type AuditFinding struct {
	// Treatment and Outcome name the audited pair; T0 and T1 are the two
	// compared treatment values (T0 < T1; diffs are avg(T1) − avg(T0)).
	Treatment string `json:"treatment"`
	Outcome   string `json:"outcome"`
	T0        string `json:"t0"`
	T1        string `json:"t1"`
	// Query is the concrete OLAP query audited (including the sweep's
	// WHERE restriction and, for treatments wider than two values, the
	// IN restriction to the two best-supported values); SQL is its
	// Listing 1 rendering.
	Query query.Query `json:"-"`
	SQL   string      `json:"sql"`
	// Support is the row count of the smaller compared treatment group.
	Support int `json:"support"`
	// Covariates is the discovered adjustment set Z (the treatment's
	// parents, minus the audited outcome) and Mediators the outcome's
	// parents reached through the treatment (M); CDTests counts the
	// independence tests the treatment's discovery spent (shared across
	// the treatment's candidates).
	Covariates []string `json:"covariates,omitempty"`
	Mediators  []string `json:"mediators,omitempty"`
	CDTests    int      `json:"-"`
	// MI and PValue report the strongest rejecting balance test — over Z
	// (total effect) or Z ∪ M (direct effect): the bias verdict's
	// strength and significance.
	MI       float64 `json:"mi"`
	PValue   float64 `json:"p_value"`
	PValueCI float64 `json:"p_value_ci,omitempty"`
	// OriginalDiff is the naive avg(T1) − avg(T0); AdjustedDiff is the
	// same difference after the bias-removing rewriting — the
	// total-effect adjustment over Z when covariates were discovered,
	// otherwise the natural-direct-effect estimate over M (AdjustedKind
	// says which). AdjustedDiff is nil when no rewriting was possible:
	// exact matching can fail when no block contains both treatment
	// values.
	OriginalDiff float64  `json:"original_diff"`
	AdjustedDiff *float64 `json:"adjusted_diff,omitempty"`
	AdjustedKind string   `json:"adjusted_kind,omitempty"`
	// Reversed reports an effect reversal: adjusting flipped the sign of
	// the compared difference (the Simpson's-paradox signature).
	Reversed bool `json:"reversed"`
	// Score is the ranking key: the effect distortion
	// |OriginalDiff − AdjustedDiff| when the rewriting succeeded,
	// |OriginalDiff| otherwise. Findings sort by (Reversed, Score,
	// PValue) with name tie-breaks, so reports are deterministic.
	Score float64 `json:"score"`
	// Responsible ranks the covariates by their share of the bias
	// (coarse explanation, Def 3.3).
	Responsible []Responsibility `json:"responsible,omitempty"`
	// Note carries non-fatal per-candidate diagnostics (e.g. why the
	// rewriting was impossible).
	Note string `json:"note,omitempty"`
}

// AuditReport is the result of a lattice-wide bias sweep. Accountability
// invariant: Candidates == Evaluated + len(Pruned), and
// Evaluated == len(Findings) + len(Unbiased) (before TopK capping) — every
// enumerated candidate is either evaluated or listed as pruned with a
// reason; nothing is dropped silently.
type AuditReport struct {
	// Treatments and Outcomes are the attributes that passed the role
	// filters; Excluded lists the ones that did not, with reasons.
	Treatments []string
	Outcomes   []string
	Excluded   []AuditExcluded
	// Candidates counts the enumerated (treatment, outcome) pairs;
	// Evaluated counts the pairs that survived support pruning and were
	// analyzed.
	Candidates int
	Evaluated  int
	// Findings are the biased candidate queries, ranked by effect-reversal
	// strength and significance (capped at TopK when set; TotalFindings
	// preserves the uncapped count).
	Findings      []AuditFinding
	TotalFindings int
	// Unbiased lists the evaluated candidates that passed the balance
	// test; Pruned lists the candidates excluded by the support filter.
	Unbiased []AuditUnbiased
	Pruned   []AuditPruned
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
	// Degraded is true when the sweep read counts with at least one remote
	// shard missing (degraded reads over a remote-sharded relation): every
	// count, test and ranking may rest on partial data and the report must
	// be treated as stale. Set by the facade, which watches the storage
	// layer's degraded-serve counter across the sweep.
	Degraded bool
}

// auditGroup is the unit of sweep work: one treatment attribute, the two
// compared values, the candidate-level restriction (for treatments wider
// than two values) and the outcomes to pair it with. Grouping by treatment
// is what lets one covariate discovery — and one countcache closure prime —
// serve every candidate of the group.
type auditGroup struct {
	treatment string
	t0, t1    string
	restrict  dataset.Predicate // non-nil iff card(treatment) > 2
	// reportWhere is the full restriction a finding's query carries (the
	// sweep's WHERE conjoined with restrict), so reported queries re-run
	// against the root relation.
	reportWhere dataset.Predicate
	support     int
	outcomes    []string
}

// auditResult collects one group's per-candidate outcomes in outcome order.
type auditResult struct {
	findings []AuditFinding
	unbiased []AuditUnbiased
}

// Audit sweeps the (treatment, outcome) query lattice of a relation: it
// enumerates every ordered attribute pair passing the spec's role,
// cardinality and support filters, runs bias detection on each surviving
// candidate over a bounded worker pool, and returns the biased queries
// ranked by effect-reversal strength and significance, with responsible
// covariates and coarse explanations attached.
//
// The sweep shares work instead of brute-forcing: candidates are grouped by
// treatment, so covariate discovery — whose attribute closure is the whole
// schema and therefore identical for every group — primes the session count
// cache once for the entire sweep, and each group's CD result, balance
// test and explanation counts are reused across all of its outcomes.
// Support pruning runs before any statistical test, so no permutation loop
// is ever spent on a candidate that would be discarded. Cancelling ctx
// aborts the sweep promptly, mid-candidate.
func Audit(ctx context.Context, rel source.Relation, spec AuditSpec, opts Options) (*AuditReport, error) {
	start := time.Now()
	view := rel
	if spec.Where != nil {
		v, err := rel.Restrict(ctx, spec.Where)
		if err != nil {
			return nil, err
		}
		view = v
	}
	n, err := view.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("core: audit WHERE clause selects no rows: %w", hyperr.ErrEmptySelection)
	}

	rep := &AuditReport{}
	if err := auditRoles(ctx, view, spec, rep); err != nil {
		return nil, err
	}

	// Every group's covariate discovery closes over the full schema, so the
	// whole sweep shares one closure: prime the count cache with the finest
	// group-by up front (one backend round trip) and everything after it —
	// the support counts of candidate enumeration, each candidate's
	// preparation screen, discovery, balance test, explanation and
	// rewriting — marginalizes it client-side. Closures over the cell
	// budget are skipped inside Prime and requests fall through per-subset.
	if p, ok := view.(*countcache.Relation); ok && !opts.SkipPrime && len(rep.Treatments) > 0 && len(rep.Outcomes) > 0 {
		if err := p.Prime(ctx, view.Attributes(), 0); err != nil {
			return nil, err
		}
	}

	groups, err := auditEnumerate(ctx, view, spec, rep)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, g := range groups {
		total += len(g.outcomes)
	}
	rep.Evaluated = total

	progress := newAuditProgress(spec.Progress, total)
	progress.emit(0)

	results := make([]auditResult, len(groups))
	// The outcome parents behind mediator sets are treatment-independent
	// (target outcome, prepared full-schema candidates), so every treatment
	// group shares one discovery per outcome, with or without a session
	// memoizer behind opts.Discover.
	medCache := countcache.NewMemo()
	err = pool.Run(ctx, len(groups), spec.workers(), func(gctx context.Context, i int) error {
		res, err := opts.auditOne(gctx, view, groups[i], rep.Outcomes, medCache, progress)
		if err != nil {
			return fmt.Errorf("core: audit %s: %w", groups[i].treatment, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, r := range results {
		rep.Findings = append(rep.Findings, r.findings...)
		rep.Unbiased = append(rep.Unbiased, r.unbiased...)
	}
	rankFindings(rep.Findings)
	rep.TotalFindings = len(rep.Findings)
	if spec.TopK > 0 && len(rep.Findings) > spec.TopK {
		rep.Findings = rep.Findings[:spec.TopK]
	}
	sort.Slice(rep.Unbiased, func(i, j int) bool {
		if rep.Unbiased[i].Treatment != rep.Unbiased[j].Treatment {
			return rep.Unbiased[i].Treatment < rep.Unbiased[j].Treatment
		}
		return rep.Unbiased[i].Outcome < rep.Unbiased[j].Outcome
	})
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// auditRoles resolves the treatment- and outcome-eligible attribute sets,
// recording every exclusion with its reason.
func auditRoles(ctx context.Context, view source.Relation, spec AuditSpec, rep *AuditReport) error {
	exclude := func(attr, role, reason string) {
		rep.Excluded = append(rep.Excluded, AuditExcluded{Attr: attr, Role: role, Reason: reason})
	}
	resolve := func(requested []string, role string) ([]string, error) {
		attrs := requested
		explicit := len(requested) > 0
		if !explicit {
			attrs = view.Attributes()
		}
		var out []string
		seen := make(map[string]bool, len(attrs))
		for _, a := range attrs {
			if seen[a] {
				continue // duplicate names must not double-count candidates
			}
			seen[a] = true
			if !view.HasAttribute(a) {
				return nil, fmt.Errorf("core: audit %s candidate %q: %w", role, a, hyperr.ErrUnknownAttribute)
			}
			card, err := source.Card(ctx, view, a)
			if err != nil {
				return nil, err
			}
			if card < 2 {
				exclude(a, role, "constant in the audited population")
				continue
			}
			switch role {
			case "treatment":
				if !explicit && card > spec.maxTreatmentCard() {
					exclude(a, role, fmt.Sprintf("cardinality %d exceeds the treatment bound %d", card, spec.maxTreatmentCard()))
					continue
				}
			case "outcome":
				if !explicit && card > spec.maxOutcomeCard() {
					exclude(a, role, fmt.Sprintf("cardinality %d exceeds the outcome bound %d", card, spec.maxOutcomeCard()))
					continue
				}
				if _, err := query.FloatDict(ctx, view, a); err != nil {
					if explicit {
						return nil, fmt.Errorf("core: audit outcome %q: %w", a, err)
					}
					exclude(a, role, "non-numeric values cannot be averaged")
					continue
				}
			}
			out = append(out, a)
		}
		sort.Strings(out)
		return out, nil
	}
	var err error
	if rep.Treatments, err = resolve(spec.Treatments, "treatment"); err != nil {
		return err
	}
	rep.Outcomes, err = resolve(spec.Outcomes, "outcome")
	return err
}

// auditEnumerate builds the per-treatment work groups: it counts the
// treatment's groups once (served by the count cache), picks the two
// best-supported values, applies the support filter, and pairs the
// treatment with every eligible outcome. Pruned candidates are recorded on
// the report.
func auditEnumerate(ctx context.Context, view source.Relation, spec AuditSpec, rep *AuditReport) ([]auditGroup, error) {
	var groups []auditGroup
	for _, t := range rep.Treatments {
		outcomes := make([]string, 0, len(rep.Outcomes))
		for _, y := range rep.Outcomes {
			if y != t {
				outcomes = append(outcomes, y)
			}
		}
		if len(outcomes) == 0 {
			continue
		}
		rep.Candidates += len(outcomes)

		t0, t1, support, card, err := topTwoValues(ctx, view, t)
		if err != nil {
			return nil, err
		}
		if support < spec.minSupport() {
			for _, y := range outcomes {
				rep.Pruned = append(rep.Pruned, AuditPruned{
					Treatment: t, Outcome: y,
					Reason:  fmt.Sprintf("group support %d below the minimum %d", support, spec.minSupport()),
					Support: support,
				})
			}
			continue
		}
		g := auditGroup{treatment: t, t0: t0, t1: t1, support: support, outcomes: outcomes}
		if card > 2 {
			g.restrict = dataset.In{Attr: t, Values: []string{t0, t1}}
		}
		g.reportWhere = combineWhere(spec.Where, g.restrict)
		groups = append(groups, g)
	}
	return groups, nil
}

// topTwoValues returns the treatment's two best-supported values in
// lexicographic order, the smaller group's row count, and the active-domain
// size. Ties between counts break on the label, keeping sweeps
// deterministic.
func topTwoValues(ctx context.Context, view source.Relation, t string) (t0, t1 string, support, card int, err error) {
	dc, err := source.Tabulate(ctx, view, []string{t})
	if err != nil {
		return "", "", 0, 0, err
	}
	labels, err := view.Labels(ctx, t)
	if err != nil {
		return "", "", 0, 0, err
	}
	type vc struct {
		label string
		n     int
	}
	var vals []vc
	for code, n := range dc.Marginal(0) {
		if n > 0 {
			vals = append(vals, vc{label: labels[code], n: n})
		}
	}
	if len(vals) < 2 {
		return "", "", 0, len(vals), nil
	}
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].n != vals[j].n {
			return vals[i].n > vals[j].n
		}
		return vals[i].label < vals[j].label
	})
	t0, t1 = vals[0].label, vals[1].label
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	return t0, t1, vals[1].n, len(vals), nil
}

// auditOne evaluates one treatment group: a single covariate discovery for
// the treatment (routed through opts.Discover, so session handles also
// share it with Analyze traffic), the sweep-shared per-outcome mediator
// discoveries, then one balance test, effect comparison and coarse
// explanation per distinct variable set, all served from the primed count
// cache.
func (o Options) auditOne(ctx context.Context, view source.Relation, g auditGroup, auditOutcomes []string, medCache *countcache.Memo, progress *auditProgress) (auditResult, error) {
	var res auditResult
	gview := view
	if g.restrict != nil {
		v, err := view.Restrict(ctx, g.restrict)
		if err != nil {
			return res, err
		}
		gview = v
	}

	// Covariate discovery for the treatment, shared by every candidate in
	// the group. Candidates are every attribute surviving the logical-
	// dependency screen, plus the audit's outcome set — mirroring Analyze's
	// construction with the full outcome-role set, so the fallback
	// covariates exclude every attribute the sweep may audit as an outcome.
	candidates := make([]string, 0, len(view.Attributes()))
	for _, a := range view.Attributes() {
		if a != g.treatment && !containsStr(auditOutcomes, a) {
			candidates = append(candidates, a)
		}
	}
	kept, _, err := o.prepare(ctx, view, g.treatment, candidates)
	if err != nil {
		return res, err
	}
	cdCands := append(append([]string(nil), kept...), auditOutcomes...)
	cd, err := o.discover(ctx, view, g.treatment, cdCands, auditOutcomes, o.Config)
	if err != nil {
		return res, err
	}

	// Explanations depend only on (treatment, variable set), so candidates
	// resolving to the same adjustment sets — the common case — share one.
	// Their balance tests share one run through the view's test memo.
	type explanation struct {
		resp []Responsibility
		err  error
	}
	explains := make(map[string]*explanation)
	explain := func(vars []string) ([]Responsibility, error) {
		key := strings.Join(vars, "\x00")
		e, ok := explains[key]
		if !ok {
			e = &explanation{}
			e.resp, e.err = explainCoarse(ctx, gview, g.treatment, vars)
			explains[key] = e
		}
		return e.resp, e.err
	}

	for _, y := range g.outcomes {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		covs := excludeStr(cd.Parents, y)
		var meds []string
		if !o.SkipDirect {
			// Mediators of the pair: the outcome's parents (discovered once
			// per outcome for the whole sweep), minus the treatment and its
			// covariates — Analyze's construction.
			parents, err := medCache.Do(ctx, countcache.Discoveries, y, func() (any, error) {
				return o.outcomeParents(ctx, view, y)
			})
			if err != nil {
				return res, err
			}
			for _, p := range parents.([]string) {
				if p != g.treatment && !containsStr(covs, p) {
					meds = append(meds, p)
				}
			}
			sort.Strings(meds)
		}
		if len(covs) == 0 && len(meds) == 0 {
			res.unbiased = append(res.unbiased, AuditUnbiased{
				Treatment: g.treatment, Outcome: y, PValue: 1,
				Note: "no covariates or mediators discovered",
			})
			progress.emit(1)
			continue
		}

		// The balance verdict mirrors Analyze: unbalanced w.r.t. Z (total
		// effect) or w.r.t. Z ∪ M (direct effect) means biased; the
		// strongest rejecting test supplies the reported significance.
		var primary independence.Result
		primary.PValue = 1
		biased := false
		if len(covs) > 0 {
			r, err := o.TestBalance(ctx, gview, g.treatment, covs, nil)
			if err != nil {
				return res, err
			}
			if !independence.Decision(r, o.alpha()) {
				biased = true
			}
			primary = r
		}
		variables := unionAttrs(covs, meds, nil)
		if len(meds) > 0 {
			r, err := o.TestBalance(ctx, gview, g.treatment, variables, nil)
			if err != nil {
				return res, err
			}
			if !independence.Decision(r, o.alpha()) {
				biased = true
			}
			if len(covs) == 0 || r.PValue < primary.PValue {
				primary = r
			}
		}
		if !biased {
			res.unbiased = append(res.unbiased, AuditUnbiased{
				Treatment: g.treatment, Outcome: y, PValue: primary.PValue,
			})
			progress.emit(1)
			continue
		}
		resp, err := explain(variables)
		if err != nil {
			return res, err
		}
		f, err := o.auditFinding(ctx, gview, g, y, covs, meds, cd, primary, resp)
		if err != nil {
			return res, err
		}
		res.findings = append(res.findings, f)
		progress.emit(1)
	}
	return res, nil
}

// outcomeParents discovers one outcome's parents over the prepared full
// schema — the raw material of mediator sets; per-pair filtering (drop the
// treatment and its covariates) happens at the candidate.
func (o Options) outcomeParents(ctx context.Context, view source.Relation, y string) ([]string, error) {
	candidates := make([]string, 0, len(view.Attributes()))
	for _, a := range view.Attributes() {
		if a != y {
			candidates = append(candidates, a)
		}
	}
	kept, _, err := o.prepare(ctx, view, y, candidates)
	if err != nil {
		return nil, err
	}
	cdY, err := o.discover(ctx, view, y, kept, nil, o.Config)
	if err != nil {
		return nil, err
	}
	return cdY.Parents, nil
}

// auditFinding assembles one biased candidate's evidence: the naive and
// adjusted effects plus the ranking score.
func (o Options) auditFinding(ctx context.Context, gview source.Relation, g auditGroup, y string, covs, meds []string, cd *CDResult, bres independence.Result, resp []Responsibility) (AuditFinding, error) {
	q := query.Query{
		Table:     gview.Name(),
		Treatment: g.treatment,
		Outcomes:  []string{y},
	}
	f := AuditFinding{
		Treatment: g.treatment, Outcome: y,
		T0: g.t0, T1: g.t1,
		Support:    g.support,
		Covariates: covs,
		Mediators:  meds,
		CDTests:    cd.Tests,
		MI:         bres.MI,
		PValue:     bres.PValue,
		PValueCI:   bres.PValueCI,
	}

	ans, err := query.Run(ctx, gview, q)
	if err != nil {
		return f, err
	}
	comps, err := ans.CompareValues(g.t0, g.t1)
	if err != nil {
		return f, err
	}
	if len(comps) == 1 {
		f.OriginalDiff = comps[0].Diffs[0]
	}

	// The adjusted effect: the total-effect rewriting over Z when
	// covariates exist, else the natural-direct-effect estimate over M
	// (the Berkeley shape, where the confounder-free path is mediated).
	var rw *query.Rewritten
	if len(covs) > 0 {
		rw, err = query.RewriteTotal(ctx, gview, q, covs)
		f.AdjustedKind = "total"
	} else {
		rw, err = query.RewriteDirect(ctx, gview, q, covs, meds, o.Baseline)
		f.AdjustedKind = "direct"
	}
	switch {
	case err == nil:
		rcomps, cerr := rw.Compare()
		switch {
		case cerr == nil && len(rcomps) == 1:
			diff := rcomps[0].Diffs[0]
			f.AdjustedDiff = &diff
		case cerr != nil:
			// E.g. the rewriting dropped every block containing one
			// treatment value: no adjusted estimate, but never silently.
			f.Note = f.AdjustedKind + "-effect comparison unavailable: " + cerr.Error()
		}
	case errors.Is(err, hyperr.ErrNoOverlap):
		f.Note = f.AdjustedKind + "-effect rewriting impossible: " + err.Error()
	default:
		return f, err
	}
	if f.AdjustedDiff == nil {
		f.AdjustedKind = ""
		f.Score = abs(f.OriginalDiff)
	} else {
		adj := *f.AdjustedDiff
		f.Reversed = f.OriginalDiff*adj < 0
		f.Score = abs(f.OriginalDiff - adj)
	}
	f.Responsible = resp

	// The report's query carries the sweep's WHERE plus the candidate's own
	// restriction, so it is self-contained and re-runnable against the root
	// relation.
	f.Query = q
	f.Query.Where = g.reportWhere
	f.SQL = f.Query.SQL()
	return f, nil
}

// combineWhere conjoins two optional predicates.
func combineWhere(a, b dataset.Predicate) dataset.Predicate {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return dataset.And{a, b}
	}
}

// rankFindings orders biased queries by effect-reversal strength and
// significance: reversals first, then the score (the adjustment's effect
// distortion), then the balance p-value, with name tie-breaks for
// deterministic reports.
func rankFindings(fs []AuditFinding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Reversed != b.Reversed {
			return a.Reversed
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.PValue != b.PValue {
			return a.PValue < b.PValue
		}
		if a.Treatment != b.Treatment {
			return a.Treatment < b.Treatment
		}
		return a.Outcome < b.Outcome
	})
}

// auditProgress serializes the sweep's progress callbacks.
type auditProgress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

func newAuditProgress(fn func(done, total int), total int) *auditProgress {
	return &auditProgress{fn: fn, total: total}
}

// emit advances the done counter by delta and invokes the callback. The
// callback runs under the progress lock — that is what makes the
// "calls are serialized, done is monotonic" contract hold for concurrent
// sweep workers — so it must not block indefinitely or re-enter the sweep.
func (p *auditProgress) emit(delta int) {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += delta
	p.fn(p.done, p.total)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WriteText renders the audit as a ranked table plus the accountability
// sections (unbiased, pruned, excluded) — the `hypdb audit` CLI output.
func (r *AuditReport) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("Audited %d candidate queries over %d treatments × %d outcomes (%d evaluated, %d pruned) in %s.\n",
		r.Candidates, len(r.Treatments), len(r.Outcomes), r.Evaluated, len(r.Pruned), r.Elapsed.Round(time.Millisecond))
	if r.Degraded {
		p("STALE: at least one remote shard was unreachable during the sweep; all statistics rest on partial counts.\n")
	}
	if len(r.Findings) == 0 {
		p("No biased queries found.\n")
	} else {
		p("%d biased quer%s", r.TotalFindings, plural(r.TotalFindings, "y", "ies"))
		if len(r.Findings) < r.TotalFindings {
			p(" (top %d shown)", len(r.Findings))
		}
		p(":\n\n")
		p("%-4s %-28s %-13s %9s %9s %-8s %-9s %s\n",
			"RANK", "QUERY", "VALUES", "Δ ORIG", "Δ ADJ", "REVERSED", "P(BIAS)", "COVARIATES (ρ)")
		for i, f := range r.Findings {
			adj := "n/a"
			if f.AdjustedDiff != nil {
				adj = fmt.Sprintf("%+.4f", *f.AdjustedDiff)
			}
			rev := "no"
			if f.Reversed {
				rev = "YES"
			}
			p("%-4d %-28s %-13s %+9.4f %9s %-8s %-9.4f %s\n",
				i+1,
				fmt.Sprintf("avg(%s) by %s", f.Outcome, f.Treatment),
				f.T0+"→"+f.T1,
				f.OriginalDiff, adj, rev, f.PValue,
				fmtResponsible(f.Responsible))
			if f.Note != "" {
				p("     note: %s\n", f.Note)
			}
		}
	}
	if len(r.Unbiased) > 0 {
		p("\nUnbiased (%d):", len(r.Unbiased))
		for _, u := range r.Unbiased {
			p(" %s→%s", u.Treatment, u.Outcome)
		}
		p("\n")
	}
	if len(r.Pruned) > 0 {
		p("\nPruned (%d):\n", len(r.Pruned))
		for _, pr := range r.Pruned {
			p("  %s→%s — %s\n", pr.Treatment, pr.Outcome, pr.Reason)
		}
	}
	if len(r.Excluded) > 0 {
		p("\nExcluded attributes:\n")
		for _, e := range r.Excluded {
			p("  %s (%s) — %s\n", e.Attr, e.Role, e.Reason)
		}
	}
	return nil
}

// String renders the report as WriteText does.
func (r *AuditReport) String() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

func fmtResponsible(resp []Responsibility) string {
	if len(resp) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(resp))
	for _, x := range resp {
		parts = append(parts, fmt.Sprintf("%s (%.2f)", x.Attr, x.Rho))
	}
	return strings.Join(parts, ", ")
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
