package hypdb_test

// Paper-fidelity regression suite: runs the seeded Berkeley, Staples and
// Flight generators end-to-end through Analyze and pins the qualitative
// conclusions of the paper's Table 1 / Figs 1, 3, 4 and 5 — bias detected,
// top-ranked explanations, and the direction of the rewritten answers —
// against golden files in testdata/paperrepro. Regenerate with
//
//	go test -run TestPaperRepro -update
//
// after an intentional change, and review the golden diff like code: it is
// the qualitative contract of the reproduction.

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hypdb"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

var update = flag.Bool("update", false, "rewrite testdata/paperrepro golden files")

// effectSummary is one comparison's qualitative digest. Floats are rounded
// to 4 decimals so golden comparisons are robust to last-ulp drift.
type effectSummary struct {
	T0          string  `json:"t0"`
	T1          string  `json:"t1"`
	Diff        float64 `json:"diff"`
	PValue      float64 `json:"p_value"`
	Significant bool    `json:"significant"` // p < 0.01
	// MC marks a Monte-Carlo p-value (MIT branch): its exact value — and,
	// under group sampling, even the verdict — depends on the sampled
	// group subset, which is backend-dependent. Excluded from golden files
	// and used by the backend-equivalence suite to scope strict
	// comparisons to deterministic (χ²-branch) effects.
	MC bool `json:"-"`
}

type explSummary struct {
	Attr string  `json:"attr"`
	Rho  float64 `json:"rho"`
}

// reproSummary is the golden-file shape of one end-to-end run.
type reproSummary struct {
	Dataset         string         `json:"dataset"`
	Rows            int            `json:"rows"`
	SQL             string         `json:"sql"`
	Biased          bool           `json:"biased"`
	UsedFallback    bool           `json:"used_fallback"`
	Covariates      []string       `json:"covariates"`
	Mediators       []string       `json:"mediators"`
	Explanations    []explSummary  `json:"explanations"`
	Original        *effectSummary `json:"original"`
	RewrittenTotal  *effectSummary `json:"rewritten_total,omitempty"`
	RewrittenDirect *effectSummary `json:"rewritten_direct,omitempty"`
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func effectOf(comps []hypdb.ComparisonReport) *effectSummary {
	if len(comps) == 0 {
		return nil
	}
	c := comps[0]
	mc := false
	if len(c.Methods) > 0 {
		// Everything except the parametric χ² branches is Monte-Carlo.
		mc = c.Methods[0] != "chi2" && c.Methods[0] != "hymit(chi2)"
	}
	return &effectSummary{
		T0: c.T0, T1: c.T1,
		Diff:        round4(c.Diffs[0]),
		PValue:      round4(c.PValues[0]),
		Significant: c.PValues[0] < 0.01,
		MC:          mc,
	}
}

// analyzeSummary runs the pipeline over the in-memory backend and digests
// the report.
func analyzeSummary(t *testing.T, name string, tab *hypdb.Table, q hypdb.Query, opts ...hypdb.Option) *reproSummary {
	t.Helper()
	return analyzeSummaryOn(t, name, hypdb.Open(tab), tab.NumRows(), q, opts...)
}

// analyzeSummaryOn runs the pipeline on an existing session handle — any
// storage backend — and digests the report.
func analyzeSummaryOn(t *testing.T, name string, db *hypdb.DB, rows int, q hypdb.Query, opts ...hypdb.Option) *reproSummary {
	t.Helper()
	rep, err := db.Analyze(context.Background(), q, opts...)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", name, err)
	}
	return summarize(name, rows, rep)
}

// summarize digests an already-computed report into the golden summary
// form, for tests that obtain reports through other entry points (batches,
// the batch-prime equivalence matrix).
func summarize(name string, rows int, rep *hypdb.Report) *reproSummary {
	s := &reproSummary{
		Dataset:      name,
		Rows:         rows,
		SQL:          rep.OriginalSQL,
		UsedFallback: rep.CD != nil && rep.CD.UsedFallback,
		Covariates:   rep.Covariates,
		Mediators:    rep.Mediators,
		Original:     effectOf(rep.OriginalComparisons),
	}
	for _, b := range rep.BiasTotal {
		s.Biased = s.Biased || b.Biased
	}
	for _, b := range rep.BiasDirect {
		s.Biased = s.Biased || b.Biased
	}
	for _, c := range rep.Coarse {
		s.Explanations = append(s.Explanations, explSummary{Attr: c.Attr, Rho: round4(c.Rho)})
	}
	s.RewrittenTotal = effectOf(rep.TotalComparisons)
	s.RewrittenDirect = effectOf(rep.DirectComparisons)
	return s
}

// checkGolden compares the summary against testdata/paperrepro/<name>, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, s *reproSummary) {
	t.Helper()
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "paperrepro", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (run `go test -run TestPaperRepro -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("summary drifted from golden file %s\n got: %s\nwant: %s\n(rerun with -update if the change is intentional)", path, got, want)
	}
}

// TestPaperReproBerkeley pins Fig 4 (top): the aggregate admission rates
// favor men, yet the causal structure routes the whole effect through
// Department — the query is flagged biased, Department is the sole
// explanation, and the direct effect all but vanishes (the Simpson
// reversal of [5]).
func TestPaperReproBerkeley(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	s := analyzeSummary(t, "BerkeleyData", tab, datagen.BerkeleyQuery(), hypdb.WithSeed(1))

	if !s.Biased {
		t.Error("Berkeley query not flagged biased")
	}
	if len(s.Mediators) != 1 || s.Mediators[0] != "Department" {
		t.Errorf("mediators = %v, want [Department]", s.Mediators)
	}
	if len(s.Explanations) == 0 || s.Explanations[0].Attr != "Department" {
		t.Errorf("top explanation = %+v, want Department", s.Explanations)
	}
	if s.Original == nil || s.Original.Diff <= 0 || !s.Original.Significant {
		t.Errorf("original comparison = %+v, want significant Male−Female > 0", s.Original)
	}
	if s.RewrittenDirect == nil {
		t.Fatal("no direct-effect answer")
	}
	// Holding the department distribution fixed, the +0.14 aggregate gap
	// collapses (paper: the conditioned trend reverses to about −0.05 at
	// department granularity; the NDE aggregate lands near zero).
	if math.Abs(s.RewrittenDirect.Diff) >= math.Abs(s.Original.Diff)/4 {
		t.Errorf("direct effect %+v did not collapse relative to original %+v", s.RewrittenDirect, s.Original)
	}
	checkGolden(t, "berkeley.golden.json", s)
}

// TestPaperReproStaples pins Fig 3 (bottom): lower-income customers see
// the higher price, but the effect is entirely mediated by Distance — the
// direct income→price effect is insignificant, and Distance carries all
// the responsibility.
func TestPaperReproStaples(t *testing.T) {
	const rows = 50000
	tab, err := datagen.Staples(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := analyzeSummary(t, "StaplesData", tab, datagen.StaplesQuery(), hypdb.WithSeed(1))

	if !s.Biased {
		t.Error("Staples query not flagged biased")
	}
	if len(s.Mediators) != 1 || s.Mediators[0] != "Distance" {
		t.Errorf("mediators = %v, want [Distance]", s.Mediators)
	}
	if len(s.Explanations) == 0 || s.Explanations[0].Attr != "Distance" || s.Explanations[0].Rho < 0.99 {
		t.Errorf("top explanation = %+v, want Distance with responsibility ≈ 1", s.Explanations)
	}
	// T0="0" (low income), T1="1" (high income): high-income customers pay
	// less on average, significantly.
	if s.Original == nil || s.Original.Diff >= 0 || !s.Original.Significant {
		t.Errorf("original comparison = %+v, want significant avg(high)−avg(low) < 0", s.Original)
	}
	// The ground truth has no direct Income → Price edge: the mediator
	// formula's answer must be statistically indistinguishable from zero.
	if s.RewrittenDirect == nil || s.RewrittenDirect.Significant {
		t.Errorf("direct effect = %+v, want insignificant (no direct edge)", s.RewrittenDirect)
	}
	checkGolden(t, "staples.golden.json", s)
}

// TestPaperReproFlight pins Fig 1 via discovery: the biased query says AA
// beats UA, HypDB flags it and ranks Airport as the dominant explanation,
// and holding the airport mix fixed reverses the comparison (UA is better
// at every study airport).
func TestPaperReproFlight(t *testing.T) {
	const rows = 12000
	tab, err := datagen.Flight(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := analyzeSummary(t, "FlightData", tab, datagen.FlightQuery(),
		hypdb.WithSeed(1), hypdb.WithPermutations(200))

	if !s.Biased {
		t.Error("Flight query not flagged biased")
	}
	if len(s.Explanations) == 0 || s.Explanations[0].Attr != "Airport" || s.Explanations[0].Rho < 0.9 {
		t.Errorf("top explanation = %+v, want Airport with dominant responsibility", s.Explanations)
	}
	// Original answer: UA looks worse (avg(UA)−avg(AA) > 0, T0=AA lexic.).
	if s.Original == nil || s.Original.T1 != "UA" || s.Original.Diff <= 0 || !s.Original.Significant {
		t.Errorf("original comparison = %+v, want significant avg(UA)−avg(AA) > 0", s.Original)
	}
	// Refined answer: with the airport mix held fixed the sign flips — the
	// Fig 1 reversal.
	if s.RewrittenDirect == nil || s.RewrittenDirect.Diff >= 0 {
		t.Errorf("refined comparison = %+v, want reversed (UA better)", s.RewrittenDirect)
	}
	checkGolden(t, "flight.golden.json", s)
}

// TestPaperReproFlightFixedCovariates pins the Fig 5(a) setup: rewriting
// w.r.t. the fixed potential covariates (Airport, DayofMonth, Month,
// DayOfWeek) — the adjusted total effect reverses the biased answer.
func TestPaperReproFlightFixedCovariates(t *testing.T) {
	const rows = 12000
	tab, err := datagen.Flight(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := analyzeSummary(t, "FlightData-fixed-covariates", tab, datagen.FlightQuery(),
		hypdb.WithSeed(1), hypdb.WithPermutations(200),
		hypdb.WithCovariates(datagen.FlightCovariates()...), hypdb.WithoutDirectEffect())

	if !s.Biased {
		t.Error("Flight query not flagged biased w.r.t. the fixed covariates")
	}
	if len(s.Explanations) == 0 || s.Explanations[0].Attr != "Airport" {
		t.Errorf("top explanation = %+v, want Airport", s.Explanations)
	}
	if s.Original == nil || s.Original.Diff <= 0 {
		t.Errorf("original comparison = %+v, want avg(UA)−avg(AA) > 0", s.Original)
	}
	if s.RewrittenTotal == nil || s.RewrittenTotal.Diff >= 0 {
		t.Errorf("adjusted total effect = %+v, want reversed (UA better)", s.RewrittenTotal)
	}
	checkGolden(t, "flight_fixed_covariates.golden.json", s)
}

// sparseOnly is a mem backend whose DenseCounts always declines, so every
// count the engine reads comes back in the sparse form. Row access,
// cardinalities and restriction are forwarded: only the count
// representation differs from mem.
type sparseOnly struct{ source.Relation }

func (sparseOnly) DenseCounts(context.Context, []string, source.Predicate, int) (*dataset.DenseCounts, error) {
	return nil, nil
}

func (s sparseOnly) Materialize(ctx context.Context) (*dataset.Table, error) {
	return source.Materialize(ctx, s.Relation)
}

func (s sparseOnly) Table() *dataset.Table {
	return s.Relation.(interface{ Table() *dataset.Table }).Table()
}

func (s sparseOnly) Cardinality(ctx context.Context, attr string) (int, error) {
	return source.Card(ctx, s.Relation, attr)
}

func (s sparseOnly) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	r, err := s.Relation.Restrict(ctx, where)
	if err != nil {
		return nil, err
	}
	return sparseOnly{r}, nil
}

// TestPaperReproForcedSparse reruns the four paper goldens with every count
// in the sparse form: the summaries must match the dense-path goldens byte
// for byte.
func TestPaperReproForcedSparse(t *testing.T) {
	berkeley, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	staples, err := datagen.Staples(50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeded := []hypdb.Option{hypdb.WithSeed(1)}
	flightOpts := []hypdb.Option{hypdb.WithSeed(1), hypdb.WithPermutations(200)}
	fixedOpts := []hypdb.Option{hypdb.WithSeed(1), hypdb.WithPermutations(200),
		hypdb.WithCovariates(datagen.FlightCovariates()...), hypdb.WithoutDirectEffect()}
	cases := []struct {
		name, file string
		tab        *hypdb.Table
		q          hypdb.Query
		opts       []hypdb.Option
	}{
		{"BerkeleyData", "berkeley.golden.json", berkeley, datagen.BerkeleyQuery(), seeded},
		{"StaplesData", "staples.golden.json", staples, datagen.StaplesQuery(), seeded},
		{"FlightData", "flight.golden.json", flight, datagen.FlightQuery(), flightOpts},
		{"FlightData-fixed-covariates", "flight_fixed_covariates.golden.json", flight, datagen.FlightQuery(), fixedOpts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := hypdb.OpenSource(sparseOnly{mem.New(c.tab)})
			checkGolden(t, c.file, analyzeSummaryOn(t, c.name, db, c.tab.NumRows(), c.q, c.opts...))
		})
	}
}
