package core

import (
	"context"

	"math"
	"math/rand"
	"strings"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/query"
	"hypdb/source/mem"
)

// simpsonData generates an observational dataset with a confounder:
// Z ~ Bern(.5); treatment B is preferred when Z=s (easy cases); outcome
// rates favor A within every stratum but B in the aggregate.
func simpsonData(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("T", "Z", "Y")
	for i := 0; i < n; i++ {
		z := "l"
		if rng.Float64() < 0.5 {
			z = "s"
		}
		tv := "A"
		pB := 0.25
		if z == "s" {
			pB = 0.75
		}
		if rng.Float64() < pB {
			tv = "B"
		}
		var pY float64
		switch {
		case tv == "A" && z == "s":
			pY = 0.93
		case tv == "B" && z == "s":
			pY = 0.87
		case tv == "A" && z == "l":
			pY = 0.73
		default:
			pY = 0.69
		}
		y := "0"
		if rng.Float64() < pY {
			y = "1"
		}
		b.MustAdd(tv, z, y)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// randomizedData generates the same outcome model but with a randomized
// treatment: the query on it is unbiased.
func randomizedData(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("T", "Z", "Y")
	for i := 0; i < n; i++ {
		z := "l"
		if rng.Float64() < 0.5 {
			z = "s"
		}
		tv := "A"
		if rng.Float64() < 0.5 {
			tv = "B"
		}
		var pY float64
		switch {
		case tv == "A" && z == "s":
			pY = 0.93
		case tv == "B" && z == "s":
			pY = 0.87
		case tv == "A" && z == "l":
			pY = 0.73
		default:
			pY = 0.69
		}
		y := "0"
		if rng.Float64() < pY {
			y = "1"
		}
		b.MustAdd(tv, z, y)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestDetectBiasConfounded(t *testing.T) {
	tab := simpsonData(t, 8000, 1)
	results, err := DetectBias(context.Background(), mem.New(tab), "T", nil, []string{"Z"}, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("contexts = %d, want 1", len(results))
	}
	if !results[0].Biased {
		t.Errorf("confounded query not flagged: p=%v MI=%v", results[0].PValue, results[0].MI)
	}
}

func TestDetectBiasRandomized(t *testing.T) {
	tab := randomizedData(t, 8000, 2)
	results, err := DetectBias(context.Background(), mem.New(tab), "T", nil, []string{"Z"}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Biased {
		t.Errorf("randomized query flagged as biased: p=%v", results[0].PValue)
	}
}

func TestDetectBiasPerContext(t *testing.T) {
	// Grouping by a binary attribute G yields one verdict per context.
	rng := rand.New(rand.NewSource(3))
	b := dataset.NewBuilder("T", "Z", "G", "Y")
	for i := 0; i < 6000; i++ {
		g := itoa(rng.Intn(2))
		z := itoa(rng.Intn(2))
		tv := itoa(rng.Intn(2))
		if g == "0" && rng.Float64() < 0.6 {
			tv = z // confounded only inside context 0
		}
		b.MustAdd(tv, z, g, itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	results, err := DetectBias(context.Background(), mem.New(tab), "T", []string{"G"}, []string{"Z"}, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("contexts = %d, want 2", len(results))
	}
	byCtx := map[string]bool{}
	for _, r := range results {
		byCtx[r.Context[0]] = r.Biased
	}
	if !byCtx["0"] {
		t.Error("confounded context 0 not flagged")
	}
	if byCtx["1"] {
		t.Error("clean context 1 flagged")
	}
}

func TestDetectBiasMultiVariableComposite(t *testing.T) {
	// V with two attributes is tested jointly: T against V's occupied tuples.
	tab := simpsonData(t, 5000, 4)
	// Add a pure-noise attribute.
	rng := rand.New(rand.NewSource(5))
	noise := make([]string, tab.NumRows())
	for i := range noise {
		noise[i] = itoa(rng.Intn(3))
	}
	ncol := dataset.NewColumnFromStrings("N", noise)
	cols := []*dataset.Column{}
	for _, name := range tab.Columns() {
		c, _ := tab.Column(name)
		cols = append(cols, c)
	}
	tab2, err := dataset.New(append(cols, ncol)...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DetectBias(context.Background(), mem.New(tab2), "T", nil, []string{"Z", "N"}, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Biased {
		t.Error("bias through Z not detected by the joint test of {Z, N}")
	}
	if _, err := DetectBias(context.Background(), mem.New(tab2), "T", nil, nil, Config{}); err == nil {
		t.Error("empty V accepted")
	}
}

func TestExplainCoarseRanksConfounders(t *testing.T) {
	// Z strongly tied to T, N weakly: ρ_Z must dominate and ρ sums to 1.
	rng := rand.New(rand.NewSource(7))
	b := dataset.NewBuilder("T", "Z", "N")
	for i := 0; i < 8000; i++ {
		z := rng.Intn(2)
		tv := z
		if rng.Float64() < 0.15 {
			tv = 1 - tv
		}
		nv := rng.Intn(2)
		if rng.Float64() < 0.1 {
			nv = tv
		}
		b.MustAdd(itoa(tv), itoa(z), itoa(nv))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := explainCoarse(context.Background(), mem.New(tab), "T", []string{"Z", "N"})
	if err != nil {
		t.Fatal(err)
	}
	if resp[0].Attr != "Z" {
		t.Errorf("top responsibility = %s, want Z", resp[0].Attr)
	}
	sum := 0.0
	for _, r := range resp {
		if r.Rho < 0 || r.Rho > 1 {
			t.Errorf("ρ(%s) = %v outside [0,1]", r.Attr, r.Rho)
		}
		sum += r.Rho
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("responsibilities sum to %v, want 1", sum)
	}
	if resp[0].Rho < 0.7 {
		t.Errorf("ρ(Z) = %v, want dominant", resp[0].Rho)
	}
}

func TestExplainCoarseNoVariables(t *testing.T) {
	tab := simpsonData(t, 100, 8)
	resp, err := explainCoarse(context.Background(), mem.New(tab), "T", nil)
	if err != nil || resp != nil {
		t.Errorf("empty V: (%v, %v), want (nil, nil)", resp, err)
	}
}

func TestExplainFineTopTriple(t *testing.T) {
	tab := simpsonData(t, 10000, 9)
	fine, err := explainFine(context.Background(), mem.New(tab), "T", "Y", "Z", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != 2 {
		t.Fatalf("explanations = %d, want 2", len(fine))
	}
	// The generator's strongest association: B concentrates in stratum s
	// (easy cases, Y=1); A concentrates in stratum l.
	top := fine[0]
	if !(top.TreatmentValue == "B" && top.CovariateValue == "s") &&
		!(top.TreatmentValue == "A" && top.CovariateValue == "l") {
		t.Errorf("top triple (T=%s,Y=%s,Z=%s) does not reflect the confounding pattern",
			top.TreatmentValue, top.OutcomeValue, top.CovariateValue)
	}
	if top.KappaTZ <= 0 {
		t.Errorf("top κ_TZ = %v, want positive contribution", top.KappaTZ)
	}
}

func TestExplainFineValidation(t *testing.T) {
	tab := simpsonData(t, 100, 10)
	if _, err := explainFine(context.Background(), mem.New(tab), "T", "Y", "missing", 2); err == nil {
		t.Error("missing covariate accepted")
	}
	// k larger than the number of triples is clamped.
	fine, err := explainFine(context.Background(), mem.New(tab), "T", "Y", "Z", 999)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) > 8 {
		t.Errorf("got %d explanations from 8 possible triples", len(fine))
	}
}

func TestAnalyzeEndToEndSimpson(t *testing.T) {
	tab := simpsonData(t, 12000, 11)
	q := query.Query{Table: "SimpsonData", Treatment: "T", Outcomes: []string{"Y"}}
	rep, err := Analyze(context.Background(), mem.New(tab), q, Options{Config: Config{Seed: 12, Parallel: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Covariate discovery finds Z (via the single-parent fallback).
	if !containsStr(rep.Covariates, "Z") {
		t.Fatalf("covariates = %v, want Z", rep.Covariates)
	}
	// The query is flagged biased.
	if len(rep.BiasTotal) != 1 || !rep.BiasTotal[0].Biased {
		t.Errorf("bias verdict = %+v, want biased", rep.BiasTotal)
	}
	// Original: B looks better (diff = B − A > 0); rewritten: A better.
	if len(rep.OriginalComparisons) != 1 || len(rep.TotalComparisons) != 1 {
		t.Fatalf("comparisons missing: %d original, %d total",
			len(rep.OriginalComparisons), len(rep.TotalComparisons))
	}
	orig := rep.OriginalComparisons[0]
	rewr := rep.TotalComparisons[0]
	if orig.Diffs[0] <= 0 {
		t.Errorf("original diff = %v, want > 0 (the paradox)", orig.Diffs[0])
	}
	if rewr.Diffs[0] >= 0 {
		t.Errorf("rewritten diff = %v, want < 0 (trend reversal)", rewr.Diffs[0])
	}
	// Original difference significant.
	if orig.PValues[0] > 0.01 {
		t.Errorf("original diff p = %v, want significant", orig.PValues[0])
	}
	// Z tops the coarse explanation.
	if len(rep.Coarse) == 0 || rep.Coarse[0].Attr != "Z" {
		t.Errorf("coarse explanations = %+v, want Z on top", rep.Coarse)
	}
	// Fine explanations exist for Z.
	if len(rep.Fine["Z"]) == 0 {
		t.Error("no fine-grained explanations for Z")
	}
	// Timings are populated.
	if rep.Timing.Detect <= 0 || rep.Timing.Explain <= 0 || rep.Timing.Resolve <= 0 {
		t.Errorf("timings not recorded: %+v", rep.Timing)
	}
	// Report renders and mentions the key sections.
	text := rep.String()
	for _, want := range []string{"SQL Query:", "Covariates (Z): Z", "BIASED", "Refined answers (total effect)", "Rewritten SQL:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAnalyzeUnbiasedQuery(t *testing.T) {
	tab := randomizedData(t, 12000, 13)
	q := query.Query{Treatment: "T", Outcomes: []string{"Y"}}
	rep, err := Analyze(context.Background(), mem.New(tab), q, Options{Config: Config{Seed: 14}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.BiasTotal {
		if b.Biased {
			t.Errorf("randomized data flagged biased: %+v", b)
		}
	}
	// Rewriting (if any) must not change the answer much.
	if len(rep.TotalComparisons) == 1 && len(rep.OriginalComparisons) == 1 {
		if math.Abs(rep.TotalComparisons[0].Diffs[0]-rep.OriginalComparisons[0].Diffs[0]) > 0.03 {
			t.Errorf("rewriting moved an unbiased answer: %v vs %v",
				rep.TotalComparisons[0].Diffs[0], rep.OriginalComparisons[0].Diffs[0])
		}
	}
}

func TestAnalyzeWithExplicitCovariates(t *testing.T) {
	tab := simpsonData(t, 6000, 15)
	q := query.Query{Treatment: "T", Outcomes: []string{"Y"}}
	rep, err := Analyze(context.Background(), mem.New(tab), q, Options{
		Config:     Config{Seed: 16},
		Covariates: []string{"Z"},
		SkipDirect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CD != nil {
		t.Error("CD ran despite explicit covariates")
	}
	if rep.RewrittenTotal == nil {
		t.Error("no rewriting with explicit covariates")
	}
	if rep.RewrittenDirect != nil {
		t.Error("direct rewriting ran despite SkipDirect")
	}
}

func TestAnalyzeMediation(t *testing.T) {
	// T → M → Y with no confounding: total effect exists, direct does not.
	rng := rand.New(rand.NewSource(17))
	b := dataset.NewBuilder("T", "M", "Y")
	for i := 0; i < 15000; i++ {
		tv := rng.Intn(2)
		m := tv
		if rng.Float64() < 0.2 {
			m = 1 - m
		}
		y := m
		if rng.Float64() < 0.2 {
			y = 1 - y
		}
		b.MustAdd(itoa(tv), itoa(m), itoa(y))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Treatment: "T", Outcomes: []string{"Y"}}
	rep, err := Analyze(context.Background(), mem.New(tab), q, Options{Config: Config{Seed: 18}})
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(rep.Mediators, "M") {
		t.Fatalf("mediators = %v, want M", rep.Mediators)
	}
	if rep.RewrittenDirect == nil {
		t.Fatal("no direct-effect rewriting despite a mediator")
	}
	if len(rep.DirectComparisons) != 1 {
		t.Fatalf("direct comparisons = %d, want 1", len(rep.DirectComparisons))
	}
	// Direct effect ≈ 0: p-value of I(T;Y|M) must be insignificant and the
	// NDE small; the original (total) diff is large.
	if rep.DirectComparisons[0].PValues[0] < 0.01 {
		t.Errorf("direct-effect p = %v, want insignificant (no direct edge)", rep.DirectComparisons[0].PValues[0])
	}
	if math.Abs(rep.DirectComparisons[0].Diffs[0]) > 0.05 {
		t.Errorf("NDE = %v, want ≈0", rep.DirectComparisons[0].Diffs[0])
	}
	if math.Abs(rep.OriginalComparisons[0].Diffs[0]) < 0.2 {
		t.Errorf("total diff = %v, want large", rep.OriginalComparisons[0].Diffs[0])
	}
}

func TestAnalyzeGroupedQuery(t *testing.T) {
	// Grouping splits contexts; each context gets its own comparison row.
	rng := rand.New(rand.NewSource(19))
	b := dataset.NewBuilder("T", "Z", "G", "Y")
	for i := 0; i < 8000; i++ {
		z := rng.Intn(2)
		tv := z
		if rng.Float64() < 0.3 {
			tv = 1 - tv
		}
		y := 0
		// Both a confounder effect (Z) and a direct treatment effect (T),
		// so that Y ∈ MB(T) and the covariate fallback engages.
		if rng.Float64() < 0.2+0.3*float64(z)+0.2*float64(tv) {
			y = 1
		}
		b.MustAdd(itoa(tv), itoa(z), itoa(rng.Intn(2)), itoa(y))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Treatment: "T", Groupings: []string{"G"}, Outcomes: []string{"Y"}}
	rep, err := Analyze(context.Background(), mem.New(tab), q, Options{Config: Config{Seed: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OriginalComparisons) != 2 {
		t.Errorf("comparisons = %d, want 2 (one per context)", len(rep.OriginalComparisons))
	}
	if len(rep.BiasTotal) != 2 {
		t.Errorf("bias verdicts = %d, want 2", len(rep.BiasTotal))
	}
}
