package independence

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hypdb/internal/contingency"
	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/stats"
	"hypdb/source"
)

// Result reports the outcome of one conditional-independence test.
type Result struct {
	// MI is the estimated conditional mutual information Î(X;Y|Z) in nats.
	MI float64
	// PValue is the p-value of the null hypothesis I(X;Y|Z) = 0.
	PValue float64
	// PValueCI is the 95% half-width around PValue when the p-value itself
	// is a Monte-Carlo estimate (MIT); zero for parametric tests.
	PValueCI float64
	// DF is the degrees of freedom used (parametric tests only).
	DF int
	// Method names the procedure that produced the result.
	Method string
	// Groups is the number of conditioning groups actually tested.
	Groups int
	// Curtailed marks a permutation test that stopped at the deciding
	// exceedance (MIT.StopAlpha): PValue is then the bound k/perms, not the
	// Monte-Carlo p-value, the full p-value is at least that bound, and
	// PValueCI is zero. MI and Groups are those of the full run.
	Curtailed bool
}

// Tester decides conditional independence X ⊥⊥ Y | Z on a relation. The
// context cancels long-running tests: Monte-Carlo testers check it between
// permutation replicates and return ctx.Err() wrapped in the test error.
// Counts-based testers (ChiSquare, MIT, HyMIT) work on any source.Relation;
// Shuffle needs rows and fails with ErrNeedsMaterialization on counts-only
// backends.
type Tester interface {
	Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error)
}

// SetTester is a Tester that also tests X against a set of variables V
// jointly, X ⊥⊥ V | Z, as Def 3.1's balance test does: V is one variable
// whose values are its occupied tuples. The counts-based testers implement
// it, and their Test(x, y, z) is TestSet(x, {y}, z). V must be non-empty,
// must not repeat an attribute and must not share one with x or Z.
type SetTester interface {
	Tester
	TestSet(ctx context.Context, rel source.Relation, x string, y, z []string) (Result, error)
}

// Decision applies the significance level: independent iff p ≥ alpha. On a
// curtailed Result it is exact at the level the test stopped at (and any
// lower one), since the full p-value is at least the bound PValue holds.
func Decision(r Result, alpha float64) bool { return r.PValue >= alpha }

// DefaultAlpha is the significance level used in all of the paper's
// statistical tests (Sec 7.3).
const DefaultAlpha = 0.01

// ---------------------------------------------------------------------------
// Chi-squared (G-test)

// ChiSquare is the parametric test: G = 2n·Î(X;Y|Z) against the χ²
// distribution with (|Π_X|−1)(|Π_Y|−1)|Π_Z| degrees of freedom.
type ChiSquare struct {
	// Provider supplies entropies of the relation it was built over; when
	// nil, or when a test runs on another relation, a provider over the
	// tested relation, without the entropy cache, is built per call.
	Provider *Provider
	Est      stats.Estimator
}

// Test implements Tester.
func (c ChiSquare) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error) {
	return c.TestSet(ctx, rel, x, []string{y}, z)
}

// TestSet implements SetTester.
func (c ChiSquare) TestSet(ctx context.Context, rel source.Relation, x string, y, z []string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := ensureAttrs(rel, x, y, z); err != nil {
		return Result{}, err
	}
	p, err := c.Provider.over(ctx, rel, c.Est)
	if err != nil {
		return Result{}, err
	}
	if p.NumRows() == 0 {
		return Result{}, fmt.Errorf("independence: %w", hyperr.ErrEmptyTable)
	}
	mi, err := conditionalMI(ctx, p, x, y, z)
	if err != nil {
		return Result{}, err
	}
	df, err := degreesOfFreedom(ctx, p, x, y, z)
	if err != nil {
		return Result{}, err
	}
	pv, err := stats.GTestPValue(mi, p.NumRows(), df)
	if err != nil {
		return Result{}, err
	}
	groups, err := p.distinctCount(ctx, z)
	if err != nil {
		return Result{}, err
	}
	return Result{MI: mi, PValue: pv, DF: df, Method: "chi2", Groups: groups}, nil
}

// ---------------------------------------------------------------------------
// MIT: Monte-Carlo permutation test over contingency tables (Alg 2)

// MIT is the paper's optimized permutation test. Instead of reshuffling the
// data it draws, per conditioning group z, random contingency tables with
// the observed marginals (Patefield's algorithm) and aggregates their
// mutual informations with weights Pr(z). The observed tables are built
// from one group-by count query over (Z, X, Y) — the statistic needs no
// row-level access, which is what lets it run against pushed-down SQL
// aggregation.
type MIT struct {
	// Permutations is the number of Monte-Carlo replicates m (Alg 2).
	// Zero means DefaultPermutations.
	Permutations int
	// Est selects the MI estimator applied to each table.
	Est stats.Estimator
	// SampleGroups enables the "sampling from groups" optimization (Sec 5):
	// the test is restricted to a weighted sample of conditioning groups of
	// size ⌈DefaultSampleFactor·ln(#groups)⌉.
	SampleGroups bool
	// Seed makes the Monte-Carlo draw reproducible.
	Seed int64
	// Parallel fans replicates out over GOMAXPROCS workers. Results are
	// deterministic for a fixed seed either way.
	Parallel bool
	// StopAlpha, when positive, curtails the test for callers that read
	// only Decision at this level (Besag & Clifford 1991): replicates stop
	// once the exceedance count reaches the smallest k with
	// k/perms ≥ StopAlpha, the verdict "independent" being settled. Such a
	// Result is flagged Curtailed; a run that never reaches k draws every
	// replicate and returns the full Result. Zero runs every replicate.
	StopAlpha float64
}

// DefaultPermutations mirrors the paper's setup (1000 permutations for
// query-answer significance, Sec 7.1).
const DefaultPermutations = 1000

// DefaultSampleFactor is the c in the group sample's size c·ln(#groups).
const DefaultSampleFactor = 8.0

// groupTable holds the observed (X,Y) contingency table of one z-group and
// its sampling weight.
type groupTable struct {
	table  *contingency.Table2
	prob   float64 // Pr(z), renormalized over kept groups
	weight float64 // w_i = Pr(z)·max(H(X|z), H(Y|z))
}

// Test implements Tester.
func (m MIT) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error) {
	return m.TestSet(ctx, rel, x, []string{y}, z)
}

// TestSet implements SetTester.
func (m MIT) TestSet(ctx context.Context, rel source.Relation, x string, y, z []string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := ensureAttrs(rel, x, y, z); err != nil {
		return Result{}, err
	}
	perms := m.Permutations
	if perms <= 0 {
		perms = DefaultPermutations
	}

	groups, err := buildGroupTables(ctx, rel, x, y, z)
	if err != nil {
		return Result{}, err
	}
	total := len(groups)
	if total == 0 {
		return Result{}, fmt.Errorf("independence: %w", hyperr.ErrEmptyTable)
	}

	// Informative groups are those where both X and Y vary; all others have
	// MI identically zero under every permutation.
	informative := groups[:0]
	for _, g := range groups {
		if g.weight > 0 {
			informative = append(informative, g)
		}
	}
	if len(informative) == 0 {
		return Result{MI: 0, PValue: 1, Method: m.methodName(), Groups: 0}, nil
	}
	groups = informative

	if m.SampleGroups {
		k := int(math.Ceil(DefaultSampleFactor * math.Log(float64(total)+1)))
		if k < 1 {
			k = 1
		}
		if k < len(groups) {
			groups = sampleGroups(groups, k, rand.New(rand.NewSource(m.Seed^0x5eed)))
		}
	}

	// Renormalize Pr(z) over the kept groups so the statistic remains a
	// proper expectation (Sec 3.3 note on renormalization after pruning).
	probSum := 0.0
	for _, g := range groups {
		probSum += g.prob
	}
	if probSum == 0 {
		return Result{MI: 0, PValue: 1, Method: m.methodName(), Groups: 0}, nil
	}
	for i := range groups {
		groups[i].prob /= probSum
	}

	// Observed statistic s0 over the kept groups.
	s0 := 0.0
	for _, g := range groups {
		s0 += g.prob * g.table.MI(m.Est)
	}

	// Permutation replicates.
	stop := curtailAt(m.StopAlpha, perms)
	exceed, err := m.runReplicates(ctx, groups, perms, s0, stop)
	if err != nil {
		return Result{}, err
	}
	res := Result{MI: s0, Method: m.methodName(), Groups: len(groups)}
	if stop > 0 && exceed >= stop {
		res.PValue, res.Curtailed = float64(stop)/float64(perms), true
		return res, nil
	}
	res.PValue = float64(exceed) / float64(perms)
	res.PValueCI = stats.BinomialCI(res.PValue, perms)
	return res, nil
}

func (m MIT) methodName() string {
	if m.SampleGroups {
		return "mit-sampling"
	}
	return "mit"
}

// replicateSeed derives the RNG seed of replicate r. Both the serial and
// the parallel execution paths seed every replicate independently from this
// function, which is what makes the Monte-Carlo p-value a pure function of
// (data, Seed, Permutations) — independent of Parallel and GOMAXPROCS.
func replicateSeed(seed int64, r int) int64 {
	return seed + int64(r)*0x9e3779b9
}

// curtailAt returns the exceedance count that settles the verdict
// "independent" at level alpha: the smallest k with k/perms ≥ alpha, by the
// comparison Decision makes. Zero means alpha is not positive or no count
// up to perms reaches it: the test then runs in full.
func curtailAt(alpha float64, perms int) int {
	if alpha <= 0 {
		return 0
	}
	for k := 1; k <= perms; k++ {
		if float64(k)/float64(perms) >= alpha {
			return k
		}
	}
	return 0
}

// runReplicates draws perms permutation replicates and counts how many
// reach the observed statistic. With stop > 0 it draws no replicate once
// the count has reached stop; the count returned is then at least stop,
// and below stop exactly when every replicate was drawn.
func (m MIT) runReplicates(ctx context.Context, groups []groupTable, perms int, s0 float64, stop int) (int, error) {
	samplers := make([]*contingency.Sampler, len(groups))
	for i, g := range groups {
		s, err := contingency.NewSamplerFromTable(g.table)
		if err != nil {
			return 0, err
		}
		samplers[i] = s
	}

	replicate := func(rng *rand.Rand, scratch []*contingency.Table2) (float64, error) {
		si := 0.0
		for gi, g := range groups {
			if err := samplers[gi].Sample(rng, scratch[gi]); err != nil {
				return 0, err
			}
			si += g.prob * scratch[gi].MI(m.Est)
		}
		return si, nil
	}

	newScratch := func() []*contingency.Table2 {
		sc := make([]*contingency.Table2, len(groups))
		for i, g := range groups {
			sc[i] = g.table.Clone() // right shape; contents overwritten
		}
		return sc
	}

	if !m.Parallel {
		rng := rand.New(rand.NewSource(0)) // re-seeded per replicate below
		scratch := newScratch()
		exceed := 0
		for r := 0; r < perms && (stop == 0 || exceed < stop); r++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			// Re-seed per replicate with the same derivation the parallel
			// path uses, so Parallel on/off and any GOMAXPROCS yield
			// identical p-values for one seed.
			rng.Seed(replicateSeed(m.Seed, r))
			si, err := replicate(rng, scratch)
			if err != nil {
				return 0, err
			}
			if si >= s0 {
				exceed++
			}
		}
		return exceed, nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > perms {
		workers = perms
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		exceed   atomic.Int64 // shared, so every worker sees the stop
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			scratch := newScratch()
			for r := w; r < perms; r += workers {
				if stop > 0 && exceed.Load() >= int64(stop) {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				// Per-replicate derived seed keeps the run deterministic
				// regardless of scheduling and identical to the serial path.
				rng.Seed(replicateSeed(m.Seed, r))
				si, err := replicate(rng, scratch)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if si >= s0 {
					exceed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return int(exceed.Load()), nil
}

// buildGroupTables derives the per-z-group contingency tables of x against
// the variable set y from a single dictionary-coded count query over
// (z..., x, y...), computing Pr(z) and the group weight
// w = Pr(z)·max(H(X|z),H(Y|z)). Groups come back in sorted z-key order,
// matching the deterministic group-by ordering of the in-memory pipeline.
// The tables' columns are those of tupleColumns.
func buildGroupTables(ctx context.Context, rel source.Relation, x string, y, z []string) ([]groupTable, error) {
	dc, err := source.Tabulate(ctx, rel, slices.Concat(z, []string{x}, y))
	if err != nil || dc.Total == 0 {
		return nil, err
	}
	cardX := dc.Cards[len(z)]
	cardY, column, err := tupleColumns(dc, len(z)+1)
	if err != nil {
		return nil, err
	}
	width := 1 + len(y)
	n := float64(dc.Total)
	var out []groupTable
	for _, g := range dc.GroupBy(len(z)) {
		ct, err := contingency.NewTable2(cardX, cardY)
		if err != nil {
			return nil, err
		}
		for j, c := range g.Counts {
			cell := g.Codes[j*width : (j+1)*width]
			ct.Add(int(cell[0]), column(cell[1:]), c)
		}
		prob := float64(g.Total) / n
		hx := ct.EntropyRows(stats.PlugIn)
		hy := ct.EntropyCols(stats.PlugIn)
		w := prob * math.Max(hx, hy)
		if hx == 0 || hy == 0 {
			// X or Y constant in this group: MI is identically zero under
			// any permutation; the group cannot contribute.
			w = 0
		}
		out = append(out, groupTable{table: ct, prob: prob, weight: w})
	}
	return out, nil
}

// tupleColumns numbers the values of the variable set held by dc's
// attributes from position lead on, returning the number of table columns
// and the column of each value's codes. A single attribute is numbered by
// its codes. A larger set is numbered by its occupied tuples, in ascending
// dataset.EncodeKey order of their codes taken in the set's given order, so
// a table has one column per occupied tuple. MIT's draws depend on this
// numbering.
func tupleColumns(dc *dataset.DenseCounts, lead int) (int, func(codes []int32) int, error) {
	if len(dc.Cards) == lead+1 {
		return dc.Cards[lead], func(codes []int32) int { return int(codes[0]) }, nil
	}
	keep := make([]int, len(dc.Cards)-lead)
	for i := range keep {
		keep[i] = lead + i
	}
	vd, err := dc.Project(keep)
	if err != nil {
		return 0, nil, err
	}
	tuples := vd.GroupBy(len(keep))
	index := make(map[dataset.GroupKey]int, len(tuples))
	for i, g := range tuples {
		index[g.Key] = i
	}
	return len(tuples), func(codes []int32) int { return index[dataset.EncodeKey(codes...)] }, nil
}

// sampleGroups draws k groups without replacement with probability
// proportional to weight (Efraimidis–Spirakis keys).
func sampleGroups(groups []groupTable, k int, rng *rand.Rand) []groupTable {
	type keyed struct {
		key float64
		g   groupTable
	}
	keys := make([]keyed, len(groups))
	for i, g := range groups {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[i] = keyed{key: math.Pow(u, 1/g.weight), g: g}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key > keys[j].key })
	out := make([]groupTable, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].g
	}
	return out
}

// ---------------------------------------------------------------------------
// HyMIT: hybrid rule (Sec 6)

// HyMIT applies the chi-squared test when the sample is large relative to
// the degrees of freedom (n ≥ DefaultBeta·df) and falls back to MIT with
// group sampling otherwise.
type HyMIT struct {
	// Permutations, Seed, Parallel configure the MIT fallback.
	Permutations int
	Seed         int64
	Parallel     bool
	// StopAlpha curtails the MIT fallback (see MIT.StopAlpha); the χ²
	// branch is unaffected.
	StopAlpha float64
	// Est selects the estimator for both branches.
	Est stats.Estimator
	// Provider optionally supplies cached entropies to the χ² branch of
	// tests on the relation it was built over.
	Provider *Provider
}

// DefaultBeta is the sample-per-df requirement β of Sec 6 ("β = 5 is
// ideal").
const DefaultBeta = 5.0

// Test implements Tester.
func (h HyMIT) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error) {
	return h.TestSet(ctx, rel, x, []string{y}, z)
}

// TestSet implements SetTester.
func (h HyMIT) TestSet(ctx context.Context, rel source.Relation, x string, y, z []string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := ensureAttrs(rel, x, y, z); err != nil {
		return Result{}, err
	}
	p, err := h.Provider.over(ctx, rel, h.Est)
	if err != nil {
		return Result{}, err
	}
	df, err := degreesOfFreedom(ctx, p, x, y, z)
	if err != nil {
		return Result{}, err
	}
	if float64(p.NumRows()) >= DefaultBeta*float64(df) && df > 0 {
		res, err := (ChiSquare{Provider: p, Est: h.Est}).TestSet(ctx, rel, x, y, z)
		if err != nil {
			return Result{}, err
		}
		res.Method = "hymit(chi2)"
		return res, nil
	}
	res, err := (MIT{
		Permutations: h.Permutations,
		Est:          h.Est,
		SampleGroups: true,
		Seed:         h.Seed,
		Parallel:     h.Parallel,
		StopAlpha:    h.StopAlpha,
	}).TestSet(ctx, rel, x, y, z)
	if err != nil {
		return Result{}, err
	}
	res.Method = "hymit(mit)"
	return res, nil
}

// ---------------------------------------------------------------------------
// Naive shuffle-based permutation test (the baseline MIT replaces)

// Shuffle is the classical Monte-Carlo permutation test: it permutes the X
// column within each conditioning group and recomputes Î(X;Y|Z) on the
// shuffled data. Its cost is proportional to m·|D|; the paper reports that
// one such test "consumes hours" where MIT takes under a second. It exists
// here as the Fig 6(b) baseline and as a correctness cross-check for MIT.
//
// Shuffle genuinely needs rows: on a counts-only relation it fails with an
// error wrapping hyperr.ErrNeedsMaterialization.
type Shuffle struct {
	Permutations int
	Est          stats.Estimator
	Seed         int64
}

// Test implements Tester.
func (s Shuffle) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := ensureAttrs(rel, x, []string{y}, z); err != nil {
		return Result{}, err
	}
	t, err := source.Materialize(ctx, rel)
	if err != nil {
		return Result{}, fmt.Errorf("independence: shuffle test: %w", err)
	}
	if t.NumRows() == 0 {
		return Result{}, fmt.Errorf("independence: %w", hyperr.ErrEmptyTable)
	}
	perms := s.Permutations
	if perms <= 0 {
		perms = DefaultPermutations
	}
	xc, err := t.Column(x)
	if err != nil {
		return Result{}, err
	}
	yc, err := t.Column(y)
	if err != nil {
		return Result{}, err
	}
	groups, err := t.GroupBy(z...)
	if err != nil {
		return Result{}, err
	}
	n := float64(t.NumRows())

	// Per-group scratch tables are hoisted out of the replicate loop: each
	// cmiOf call re-tabulates into them instead of allocating m·|groups|
	// fresh tables across the permutation run.
	scratch := make([]*contingency.Table2, len(groups))
	for i := range groups {
		ct, err := contingency.NewTable2(xc.Card(), yc.Card())
		if err != nil {
			return Result{}, err
		}
		scratch[i] = ct
	}
	cmiOf := func(xcodes []int32) (float64, error) {
		total := 0.0
		for gi, g := range groups {
			ct := scratch[gi]
			if err := ct.TabulateRows(xcodes, yc.Codes(), g.Rows); err != nil {
				return 0, err
			}
			total += float64(len(g.Rows)) / n * ct.MI(s.Est)
		}
		return total, nil
	}

	s0, err := cmiOf(xc.Codes())
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	shuffled := append([]int32(nil), xc.Codes()...)
	exceed := 0
	for r := 0; r < perms; r++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Permute X within each group, preserving the group structure
		// (destroys only the X–Y dependence within groups).
		for _, g := range groups {
			rows := g.Rows
			for i := len(rows) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				shuffled[rows[i]], shuffled[rows[j]] = shuffled[rows[j]], shuffled[rows[i]]
			}
		}
		si, err := cmiOf(shuffled)
		if err != nil {
			return Result{}, err
		}
		if si >= s0 {
			exceed++
		}
	}
	pv := float64(exceed) / float64(perms)
	return Result{
		MI:       s0,
		PValue:   pv,
		PValueCI: stats.BinomialCI(pv, perms),
		Method:   "shuffle",
		Groups:   len(groups),
	}, nil
}

// ---------------------------------------------------------------------------
// Instrumentation

// Counter wraps a Tester and counts invocations; the paper reports the
// number of conducted independence tests as a performance measure (Fig 6a,
// footnote 3).
type Counter struct {
	Inner Tester

	mu    sync.Mutex
	calls int
}

// Test implements Tester.
func (c *Counter) Test(ctx context.Context, rel source.Relation, x, y string, z []string) (Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Inner.Test(ctx, rel, x, y, z)
}

// Calls returns the number of tests performed so far.
func (c *Counter) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.calls = 0
	c.mu.Unlock()
}
