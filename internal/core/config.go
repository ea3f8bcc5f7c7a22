package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hypdb/internal/countcache"
	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source"
)

// TestMethod selects the conditional-independence test used throughout the
// pipeline — the knob varied across CD(χ²), CD(MIT) and CD(HyMIT) in the
// paper's experiments.
type TestMethod int

const (
	// HyMITMethod is the hybrid default (Sec 6): χ² when the sample is
	// large relative to the degrees of freedom, MIT with group sampling
	// otherwise.
	HyMITMethod TestMethod = iota
	// ChiSquaredMethod always uses the parametric G-test.
	ChiSquaredMethod
	// MITMethod always uses the full Monte-Carlo permutation test.
	MITMethod
	// MITSamplingMethod is MIT restricted to a weighted sample of
	// conditioning groups.
	MITSamplingMethod
)

// String implements fmt.Stringer.
func (m TestMethod) String() string {
	switch m {
	case ChiSquaredMethod:
		return "chi2"
	case MITMethod:
		return "mit"
	case MITSamplingMethod:
		return "mit-sampling"
	default:
		return "hymit"
	}
}

// MarshalText implements encoding.TextMarshaler: the method's String.
func (m TestMethod) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, inverting MarshalText:
// it accepts "hymit", "chi2", "mit" and "mit-sampling".
func (m *TestMethod) UnmarshalText(text []byte) error {
	for _, c := range []TestMethod{HyMITMethod, ChiSquaredMethod, MITMethod, MITSamplingMethod} {
		if string(text) == c.String() {
			*m = c
			return nil
		}
	}
	return fmt.Errorf("unknown method %q (want hymit, chi2, mit or mit-sampling)", text)
}

// Config parameterizes the HypDB pipeline. The zero value is the paper's
// default setup: HyMIT with α = 0.01, Miller-Madow entropies, 1000
// permutations, entropy caching and contingency-table materialization on.
type Config struct {
	// Method selects the independence test.
	Method TestMethod
	// Alpha is the significance level; zero means 0.01 (Sec 7.3).
	Alpha float64
	// Permutations for MIT-based tests; zero means 1000.
	Permutations int
	// Seed drives all Monte-Carlo components.
	Seed int64
	// MaxCondSet caps conditioning-set sizes enumerated by the CD
	// algorithm; zero means no cap.
	MaxCondSet int
	// MaxBoundary caps Markov-boundary growth; zero means no cap.
	MaxBoundary int
	// DisableEntropyCache turns off the Sec 6 entropy cache and, with it,
	// the sharing of statistics across tests and screens: a count-cache
	// view otherwise keeps one memo of results for every test on it, so
	// CDs, phase searches and Grow-Shrink runs on the same view re-use each
	// other's χ² entropies (per estimator) and tests, and the Sec 4 key
	// detector samples each attribute of the view once however many
	// candidate screens run on it. With it set, every phase builds its own
	// uncached provider, every test runs and every screen redraws its
	// subsamples (the Fig 6c "none" and "+materialization" variants).
	// Results are identical either way.
	DisableEntropyCache bool
	// DisableMaterialization turns off the Sec 6 contingency-table
	// materialization used in the CD phases: priming the count cache with
	// each phase's attribute closure.
	DisableMaterialization bool
	// Parallel uses every core inside one analysis: permutation replicates
	// fan out, and so do the independent discovery searches — the
	// treatment's covariate discovery and each outcome's mediator
	// discovery in Analyze, and the member boundary searches of each
	// DiscoverCovariates. Concurrent searches share one view's test memo,
	// which runs each test once, so results and test counts are identical
	// either way.
	Parallel bool
	// SkipPrime disables the pipeline's own count-cache priming (the
	// one-closure-per-request fetches of DiscoverCovariates and Audit).
	// The session facade's AnalyzeAll sets it for queries whose batch prime
	// already put a cuboid over the union of the batch's closures in the
	// cache: per-request primes would only derive views it already covers.
	// Purely a cost knob: counts are identical either way.
	SkipPrime bool
	// DisableFallback turns off the Sec 4 fallback (Z = MB(T) − outcomes)
	// when CD finds no parents. Used by the Fig 5 parent-recovery
	// experiments, which score the strict CD output.
	DisableFallback bool

	// stopAlpha, when positive, curtails permutation tests at this level
	// (independence.MIT.StopAlpha); set only by verdictOnly.
	stopAlpha float64
	// fullCDTests is a test hook: covariate discovery then draws every
	// permutation replicate, as reports do.
	fullCDTests bool
}

func (c Config) alpha() float64 {
	if c.Alpha <= 0 {
		return independence.DefaultAlpha
	}
	return c.Alpha
}

// workers is the worker count of pool.Run fan-outs inside one analysis:
// every core under Parallel, one otherwise, which runs the tasks in index
// order.
func (c Config) workers() int {
	if c.Parallel {
		return 0
	}
	return 1
}

// verdictOnly returns the configuration for testers whose callers read
// only Decision at the configured alpha and the MI — covariate discovery's
// Grow-Shrink and phase I/II searches. Their permutation tests stop at the
// deciding exceedance, which changes no verdict. Callers that report
// p-values keep full runs.
func (c Config) verdictOnly() Config {
	if !c.fullCDTests {
		c.stopAlpha = c.alpha()
	}
	return c
}

func (c Config) permutations() int {
	if c.Permutations <= 0 {
		return independence.DefaultPermutations
	}
	return c.Permutations
}

// provider returns the entropy provider for χ²-backed tests on view.
// attrsHint, when non-empty and materialization is enabled, is the phase's
// attribute closure: the view's count cache is primed with it, so every
// subset the tests request is answered by marginalizing one tabulation.
// Views without a count cache of their own (a bare backend) get a fresh one
// for the phase. The provider keeps its entropies in the view's result
// memo, where every phase and test run on the view shares them; a view
// without one gets a fresh memo for the phase, and DisableEntropyCache
// none.
func (c Config) provider(ctx context.Context, view source.Relation, attrsHint []string) (*independence.Provider, error) {
	memo := c.memo(view)
	if memo == nil && !c.DisableEntropyCache {
		memo = countcache.NewMemo()
	}
	if !c.DisableMaterialization && len(attrsHint) > 0 {
		cc, ok := view.(*countcache.Relation)
		if !ok {
			cc = countcache.Wrap(view, 0)
			view = cc
		}
		if err := cc.Prime(ctx, attrsHint, 0); err != nil {
			return nil, err
		}
	}
	return independence.NewProvider(ctx, view, stats.MillerMadow, memo)
}

// memo returns the result memo of view, or nil when the view has none or
// the entropy cache is off.
func (c Config) memo(view source.Relation) *countcache.Memo {
	if c.DisableEntropyCache {
		return nil
	}
	if cc, ok := view.(*countcache.Relation); ok {
		return cc.Memo()
	}
	return nil
}

// tester builds the independence tester for view; attrsHint optionally
// bounds the attributes tests will touch (enabling materialization). On a
// view with a result memo, tests of that view are answered from the memo
// when an identical test already ran on it.
func (c Config) tester(ctx context.Context, view source.Relation, attrsHint []string) (independence.SetTester, error) {
	t, err := c.methodTester(ctx, view, attrsHint)
	if err != nil {
		return nil, err
	}
	if m := c.memo(view); m != nil {
		return memoTester{inner: t, view: view, memo: m, fingerprint: c.testFingerprint()}, nil
	}
	return t, nil
}

// methodTester builds the tester of the configured method.
func (c Config) methodTester(ctx context.Context, view source.Relation, attrsHint []string) (independence.SetTester, error) {
	switch c.Method {
	case ChiSquaredMethod:
		p, err := c.provider(ctx, view, attrsHint)
		if err != nil {
			return nil, err
		}
		return independence.ChiSquare{Provider: p, Est: stats.MillerMadow}, nil
	case MITMethod:
		return independence.MIT{
			Permutations: c.permutations(),
			Est:          stats.MillerMadow,
			Seed:         c.Seed,
			Parallel:     c.Parallel,
			StopAlpha:    c.stopAlpha,
		}, nil
	case MITSamplingMethod:
		return independence.MIT{
			Permutations: c.permutations(),
			Est:          stats.MillerMadow,
			Seed:         c.Seed,
			SampleGroups: true,
			Parallel:     c.Parallel,
			StopAlpha:    c.stopAlpha,
		}, nil
	default:
		p, err := c.provider(ctx, view, attrsHint)
		if err != nil {
			return nil, err
		}
		return independence.HyMIT{
			Permutations: c.permutations(),
			Seed:         c.Seed,
			Parallel:     c.Parallel,
			StopAlpha:    c.stopAlpha,
			Est:          stats.MillerMadow,
			Provider:     p,
		}, nil
	}
}

// testFingerprint renders every setting that changes a test Result: the
// method, the effective permutation count, the seed and, for verdict-only
// testers, the stop level, so a curtailed Result is never served to a
// caller that reads the p-value. Parallel changes no p-value (replicates
// are seeded per index).
func (c Config) testFingerprint() string {
	fp := fmt.Sprintf("%d|%d|%d|", c.Method, c.permutations(), c.Seed)
	if c.stopAlpha > 0 {
		fp += fmt.Sprintf("s%g|", c.stopAlpha)
	}
	return fp
}

// DiscoveryKey renders every setting a covariate discovery depends on, for
// the session's memo of discoveries: the test settings, the search caps and
// the fallback, entropy-cache and materialization switches (the last two
// change only cost, which the Fig 6 experiments measure per variant).
// Parallel is left out: replicates are seeded per index, so it changes no
// p-value and requests with it on and off share one discovery.
func (c Config) DiscoveryKey() string {
	return fmt.Sprintf("%d|%g|%d|%d|%d|%d|%t|%t|%t", c.Method, c.Alpha, c.Permutations, c.Seed,
		c.MaxCondSet, c.MaxBoundary, c.DisableEntropyCache, c.DisableMaterialization, c.DisableFallback)
}

// memoTester answers tests on one count-cache view from the view's result
// memo. A test Result is a pure function of the view's counts and the
// settings in the fingerprint, so every CD, phase search, Grow-Shrink run
// and balance test on the view shares it, and concurrent searches wait for
// a test another one is running rather than run it twice. The key is the
// exact call: x, the variable set V and Z in call order (MIT's group order
// follows Z's, its table columns V's). Errors, cancellation included, are
// never stored. It sits below independence.Counter, so test counts still
// report the tests the algorithms request.
type memoTester struct {
	inner       independence.SetTester
	view        source.Relation
	memo        *countcache.Memo
	fingerprint string
}

// Test implements independence.Tester.
func (t memoTester) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (independence.Result, error) {
	return t.TestSet(ctx, rel, x, []string{y}, z)
}

// TestSet implements independence.SetTester.
func (t memoTester) TestSet(ctx context.Context, rel source.Relation, x string, y, z []string) (independence.Result, error) {
	if rel != t.view {
		// Another relation bypasses the memo; the inner tester's provider
		// serves only the view, so the test reads rel itself.
		return t.inner.TestSet(ctx, rel, x, y, z)
	}
	if err := ctx.Err(); err != nil {
		return independence.Result{}, err
	}
	v, err := t.memo.Do(ctx, countcache.Tests, t.key(x, y, z), func() (any, error) {
		return t.inner.TestSet(ctx, rel, x, y, z)
	})
	if err != nil {
		return independence.Result{}, err
	}
	return v.(independence.Result), nil
}

// key renders one call injectively: V's length comes before its members,
// and each attribute is length-prefixed. The string copies V and Z, whose
// backing arrays callers reuse.
func (t memoTester) key(x string, y, z []string) string {
	var b strings.Builder
	b.WriteString(t.fingerprint)
	write := func(a string) {
		b.WriteString(strconv.Itoa(len(a)))
		b.WriteByte(':')
		b.WriteString(a)
	}
	write(x)
	b.WriteString(strconv.Itoa(len(y)))
	b.WriteByte('|')
	for _, a := range y {
		write(a)
	}
	for _, a := range z {
		write(a)
	}
	return b.String()
}
