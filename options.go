package hypdb

import (
	"hypdb/internal/core"
	"hypdb/internal/stats"
)

// Estimator selects the entropy estimator behind mutual-information
// computations.
type Estimator = stats.Estimator

// Entropy estimators for WithEstimator.
const (
	// PlugIn is the maximum-likelihood estimator.
	PlugIn = stats.PlugIn
	// MillerMadow adds the first-order bias correction (the default).
	MillerMadow = stats.MillerMadow
)

// Option configures one DB method call. Options apply in order, so later
// options win; WithOptions and WithConfig replace whole blocks and are
// therefore best placed first.
type Option func(*settings)

// settings is the resolved configuration of one call.
type settings struct {
	opts core.Options
	// workers bounds AnalyzeAll concurrency; zero means GOMAXPROCS.
	workers int
	// maxAdjust caps EffectBounds adjustment-set sizes; zero means all.
	maxAdjust int
	// auditWorkers bounds the Audit sweep pool; zero means GOMAXPROCS.
	auditWorkers int
	// minSupport is the Audit support threshold; zero means the spec's
	// value (or DefaultMinSupport).
	minSupport int
	// noPlanner disables the lattice-aware batch planner (WithPlanner).
	noPlanner bool
	// planCellBudget overrides the planner's per-cuboid cell budget; zero
	// means opts.CellBudget (then dataset.DefaultCellBudget).
	planCellBudget int
}

func newSettings(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithOptions replaces the whole Options block — the migration escape hatch
// for callers that built a core-style Options value under the old API.
func WithOptions(o Options) Option { return func(s *settings) { s.opts = o } }

// WithConfig replaces the analysis Config wholesale, keeping the
// report-shaping knobs already set.
func WithConfig(c Config) Option { return func(s *settings) { s.opts.Config = c } }

// WithMethod selects the conditional-independence test (HyMIT, ChiSquared,
// MIT, MITSampling).
func WithMethod(m TestMethod) Option { return func(s *settings) { s.opts.Method = m } }

// WithAlpha sets the significance level (default 0.01).
func WithAlpha(alpha float64) Option { return func(s *settings) { s.opts.Alpha = alpha } }

// WithPermutations sets the Monte-Carlo replicate count for MIT-based tests
// (default 1000).
func WithPermutations(n int) Option { return func(s *settings) { s.opts.Permutations = n } }

// WithSeed fixes the seed of every Monte-Carlo component.
func WithSeed(seed int64) Option { return func(s *settings) { s.opts.Seed = seed } }

// WithBeta sets HyMIT's sample-per-degree-of-freedom threshold (default 5).
func WithBeta(beta float64) Option { return func(s *settings) { s.opts.Beta = beta } }

// WithSampleFactor scales MIT's conditioning-group sample size.
func WithSampleFactor(f float64) Option { return func(s *settings) { s.opts.SampleFactor = f } }

// WithParallel uses every core inside one analysis: permutation replicates
// fan out, and so do the analysis's independent discovery searches (the
// treatment's covariate discovery, each outcome's mediator discovery and
// the boundary searches of each). Results, test counts included, are
// identical with it on and off.
func WithParallel(on bool) Option { return func(s *settings) { s.opts.Parallel = on } }

// WithEstimator selects the entropy estimator (default MillerMadow).
func WithEstimator(e Estimator) Option {
	return func(s *settings) {
		s.opts.Estimator = e
		s.opts.EstimatorSet = true
	}
}

// WithMaxCondSet caps conditioning-set sizes enumerated by the CD search.
func WithMaxCondSet(n int) Option { return func(s *settings) { s.opts.MaxCondSet = n } }

// WithMaxBoundary caps Markov-boundary growth.
func WithMaxBoundary(n int) Option { return func(s *settings) { s.opts.MaxBoundary = n } }

// WithoutFallback disables the Sec 4 fallback covariate set when the CD
// algorithm finds no parents.
func WithoutFallback() Option { return func(s *settings) { s.opts.DisableFallback = true } }

// WithExplanations shapes the report's explanation sections: attrs is how
// many top-responsibility attributes receive fine-grained explanations, and
// topK the number of triples each (both default to 2, the paper's figures).
func WithExplanations(attrs, topK int) Option {
	return func(s *settings) {
		s.opts.FineAttrs = attrs
		s.opts.FineTopK = topK
	}
}

// WithBaseline fixes the treatment value whose mediator distribution the
// direct-effect rewriting holds constant; empty selects the smallest.
func WithBaseline(value string) Option { return func(s *settings) { s.opts.Baseline = value } }

// WithoutDirectEffect disables mediator discovery and the direct-effect
// rewriting.
func WithoutDirectEffect() Option { return func(s *settings) { s.opts.SkipDirect = true } }

// WithCovariates overrides automatic covariate discovery with a fixed set.
func WithCovariates(covariates ...string) Option {
	return func(s *settings) { s.opts.Covariates = append([]string(nil), covariates...) }
}

// WithMediators overrides automatic mediator discovery with a fixed set.
func WithMediators(mediators ...string) Option {
	return func(s *settings) { s.opts.Mediators = append([]string(nil), mediators...) }
}

// WithCellBudget bounds the cell space (product of attribute
// cardinalities) of the large dense tabulations the analysis materializes:
// the contingency-table materialization of the CD phases and the closure
// priming of the session count cache are skipped above the budget, and the
// attribute sets they would have served are then counted one by one. The
// default is dataset.DefaultCellBudget (2^22 cells); lowering it trades
// speed for memory on very-high-cardinality schemas. Per-test tabulations
// and the session cache's own views always use the package default; a set
// above it is read in the sparse form, with identical results.
func WithCellBudget(cells int) Option { return func(s *settings) { s.opts.CellBudget = cells } }

// WithWorkers bounds AnalyzeAll's worker pool (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithAuditWorkers bounds the Audit sweep's worker pool (default
// GOMAXPROCS). A non-zero AuditSpec.Workers wins over this option.
func WithAuditWorkers(n int) Option { return func(s *settings) { s.auditWorkers = n } }

// WithMinSupport sets the Audit support threshold: candidate queries whose
// smaller compared treatment group has fewer rows are pruned (and reported
// as pruned) before any statistical test runs. The default is
// DefaultMinSupport; a non-zero AuditSpec.MinSupport wins over this option.
func WithMinSupport(n int) Option { return func(s *settings) { s.minSupport = n } }

// WithMaxAdjustmentSize caps the adjustment-set sizes EffectBounds
// enumerates (default: every subset of the candidates).
func WithMaxAdjustmentSize(n int) Option { return func(s *settings) { s.maxAdjust = n } }

// WithPlanner enables or disables the lattice-aware multi-query planner
// (default on). When on, AnalyzeAll and Audit first solve a materialized-
// view selection over the batch's count demands and prime the session
// count cache with one shared cuboid frontier; concurrent calls on the
// handle coalesce their demands into the same plan. The planner is a cost
// optimization only — counts and reports are byte-identical either way —
// so WithPlanner(false) is purely a debugging/measurement switch.
func WithPlanner(on bool) Option { return func(s *settings) { s.noPlanner = !on } }

// WithPlanCellBudget bounds the estimated cell count of each cuboid the
// batch planner materializes, independently of WithCellBudget (which keeps
// governing the per-request tabulations). Demands whose closure exceeds it
// get a trimmed best-effort cuboid; the plan's total footprint is capped at
// a small multiple of this budget. Zero means the WithCellBudget value,
// then dataset.DefaultCellBudget.
func WithPlanCellBudget(cells int) Option { return func(s *settings) { s.planCellBudget = cells } }
