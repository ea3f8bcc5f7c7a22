package hypdb

import "hypdb/internal/core"

// Option configures one DB method call, one setting each. Options apply in
// order, so a later option for the same setting wins. The zero set
// reproduces the paper's setup (HyMIT, α = 0.01, Miller-Madow entropies,
// 1000 permutations).
type Option func(*settings)

// settings is the resolved configuration of one call.
type settings struct {
	opts core.Options
	// workers bounds AnalyzeAll concurrency; zero means GOMAXPROCS.
	workers int
	// noPlanner disables AnalyzeAll's batch prime; only tests set it, to
	// compare against the unprimed path.
	noPlanner bool
}

func newSettings(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

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

// WithParallel uses every core inside one analysis: permutation replicates
// fan out, and so do the analysis's independent discovery searches (the
// treatment's covariate discovery, each outcome's mediator discovery and
// the boundary searches of each). Results, test counts included, are
// identical with it on and off.
func WithParallel(on bool) Option { return func(s *settings) { s.opts.Parallel = on } }

// WithMaxCondSet caps conditioning-set sizes enumerated by the CD search.
func WithMaxCondSet(n int) Option { return func(s *settings) { s.opts.MaxCondSet = n } }

// WithMaxBoundary caps Markov-boundary growth.
func WithMaxBoundary(n int) Option { return func(s *settings) { s.opts.MaxBoundary = n } }

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

// WithWorkers bounds AnalyzeAll's worker pool (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }
