package core

import (
	"context"

	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/query"
	"hypdb/source/mem"
)

func queryOf(treatment, outcome string) query.Query {
	return query.Query{Treatment: treatment, Outcomes: []string{outcome}}
}

// independentTable builds pure-noise data (T, Z, Y all independent).
func independentTable(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("T", "Z", "Y")
	for i := 0; i < n; i++ {
		b.MustAdd(strconv.Itoa(rng.Intn(2)), strconv.Itoa(rng.Intn(2)), strconv.Itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFormattingHelpers(t *testing.T) {
	if got := ctxSuffix(nil); got != "" {
		t.Errorf("ctxSuffix(nil) = %q", got)
	}
	if got := ctxSuffix([]string{"a", "b"}); got != "[a,b]" {
		t.Errorf("ctxSuffix = %q", got)
	}
	if got := fmtFloats([]float64{0.5, 0.25}); got != "0.5000, 0.2500" {
		t.Errorf("fmtFloats = %q", got)
	}
	if got := fmtP(0.0001, 0); got != "<0.001" {
		t.Errorf("fmtP tiny = %q", got)
	}
	if got := fmtP(0.05, 0.01); got != "0.050±0.010" {
		t.Errorf("fmtP with CI = %q", got)
	}
	if got := fmtP(0.25, 0); got != "0.250" {
		t.Errorf("fmtP plain = %q", got)
	}
	if got := fmtPValues([]float64{0.5}, nil); got != "(0.500)" {
		t.Errorf("fmtPValues = %q", got)
	}
	if got := indent("a\nb", "> "); got != "> a\n> b" {
		t.Errorf("indent = %q", got)
	}
}

func TestReportRenderingUnbiasedPath(t *testing.T) {
	// A report over pure noise still renders sensibly: no crash, no
	// explanations, answers present.
	tab := independentTable(t, 2000, 61)
	rep, err := Analyze(context.Background(), mem.New(tab), queryOf("T", "Y"), Options{Config: Config{Seed: 62}})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.String()
	if !strings.Contains(text, "Query Answers:") {
		t.Error("report missing answers section")
	}
	if !strings.Contains(text, "Timings:") {
		t.Error("report missing timings")
	}
}

func TestWriteTextSections(t *testing.T) {
	tab := simpsonData(t, 8000, 63)
	rep, err := Analyze(context.Background(), mem.New(tab), queryOf("T", "Y"), Options{Config: Config{Seed: 64}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, section := range []string{
		"SQL Query:", "Query Answers:", "Covariates (Z):",
		"Bias detection", "Coarse-grained explanations",
		"Fine-grained explanations", "Refined answers (total effect)",
		"Rewritten SQL:",
	} {
		if !strings.Contains(text, section) {
			t.Errorf("report missing section %q", section)
		}
	}
}

// TestWriteTextDeterministic renders one report with three fine-grained
// explanations 50 times: the text must not change between calls, and the
// fine sections must follow the coarse ranking.
func TestWriteTextDeterministic(t *testing.T) {
	rep := &Report{
		OriginalSQL: "SELECT T, avg(Y) FROM D GROUP BY T",
		Answer:      &query.Answer{Rows: []query.Row{{Treatment: "a", Avgs: []float64{0.5}, Count: 10}}},
		Covariates:  []string{"A", "B", "C"},
		Coarse:      []Responsibility{{Attr: "C", Rho: 0.5}, {Attr: "A", Rho: 0.3}, {Attr: "B", Rho: 0.2}},
		Fine:        map[string][]FineExplanation{},
	}
	for _, attr := range []string{"A", "B", "C"} {
		rep.Fine[attr] = []FineExplanation{{TreatmentValue: "a", OutcomeValue: "1", CovariateValue: attr + "1"}}
	}
	want := rep.String()
	for i := 0; i < 50; i++ {
		if got := rep.String(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
	c, a, b := strings.Index(want, "  C:\n"), strings.Index(want, "  A:\n"), strings.Index(want, "  B:\n")
	if c < 0 || !(c < a && a < b) {
		t.Errorf("fine sections not in coarse rank order C, A, B:\n%s", want)
	}
}
