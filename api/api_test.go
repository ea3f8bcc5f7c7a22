package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hypdb"
)

func TestQueryToQuery(t *testing.T) {
	q, err := Query{
		Treatment: "Carrier",
		Outcomes:  []string{"Delayed"},
		Where:     "Carrier IN ('AA','UA')",
	}.ToQuery("flights")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "flights" || q.Treatment != "Carrier" || q.Where == nil {
		t.Errorf("converted query = %+v", q)
	}
	if got := q.Where.SQL(); got != "Carrier IN ('AA','UA')" {
		t.Errorf("where round trip = %q", got)
	}

	_, err = Query{Treatment: "T", Outcomes: []string{"Y"}, Where: "T ="}.ToQuery("d")
	if !errors.Is(err, hypdb.ErrBadPredicate) {
		t.Errorf("bad where error = %v, want ErrBadPredicate", err)
	}
}

func TestOptionsToOptions(t *testing.T) {
	for _, m := range []string{"", "hymit", "chi2", "mit", "mit-sampling"} {
		if _, err := (Options{Method: m}).ToOptions(); err != nil {
			t.Errorf("method %q rejected: %v", m, err)
		}
	}
	if _, err := (Options{Method: "magic"}).ToOptions(); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestMethodTextRoundTrip: every method's text form, the wire and CLI
// name, parses back to the method, and an unknown name is rejected.
func TestMethodTextRoundTrip(t *testing.T) {
	for _, m := range []hypdb.TestMethod{hypdb.HyMIT, hypdb.ChiSquared, hypdb.MIT, hypdb.MITSampling} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got hypdb.TestMethod
		if err := got.UnmarshalText(text); err != nil || got != m {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, m)
		}
	}
	for _, name := range []string{"magic", "", "CHI2"} {
		if err := new(hypdb.TestMethod).UnmarshalText([]byte(name)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted an unknown method", name)
		}
	}
}

func TestErrorFormat(t *testing.T) {
	e := &Error{Status: 404, Code: CodeDatasetNotFound, Message: `no dataset "x"`}
	want := `hypdbd: no dataset "x" (dataset_not_found, HTTP 404)`
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
}

func TestAuditSpecToSpec(t *testing.T) {
	spec, err := AuditSpec{
		Treatments: []string{"Gender"},
		Outcomes:   []string{"Accepted"},
		Where:      "Department IN ('A','C')",
		MinSupport: 10,
		TopK:       3,
	}.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Where == nil || spec.MinSupport != 10 || spec.TopK != 3 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := (AuditSpec{Where: "Gender IN ("}).ToSpec(); err == nil {
		t.Error("bad predicate accepted")
	}
}

// TestAuditReportFromCore checks the converter's properties on the encoded
// wire form: a present adjusted estimate is encoded, an absent one is
// omitted rather than encoded as zero, findings encode as [] when empty,
// and a nil report converts to nil.
func TestAuditReportFromCore(t *testing.T) {
	adj := -0.1
	r := &hypdb.AuditReport{
		Treatments: []string{"T"}, Outcomes: []string{"Y"},
		Candidates: 2, Evaluated: 1, TotalFindings: 1,
		Findings: []hypdb.AuditFinding{{
			Treatment: "T", Outcome: "Y", T0: "a", T1: "b",
			OriginalDiff: 0.2, AdjustedDiff: &adj,
			AdjustedKind: "total", Reversed: true, Score: 0.3,
		}},
		Pruned: []hypdb.AuditPruned{{Treatment: "R", Outcome: "Y", Reason: "low support", Support: 3}},
	}
	wire := func() string {
		b, err := json.Marshal(AuditReportFromCore(r))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	got := wire()
	for _, want := range []string{
		`"candidates":2`,
		`"original_diff":0.2,"adjusted_diff":-0.1,"adjusted_kind":"total","reversed":true`,
		`"pruned":[{"treatment":"R","outcome":"Y","reason":"low support","support":3}]`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("wire report lacks %s:\n%s", want, got)
		}
	}
	r.Findings[0].AdjustedDiff = nil
	if got := wire(); strings.Contains(got, "adjusted_diff") {
		t.Errorf("absent adjusted estimate encoded:\n%s", got)
	}
	r.Findings, r.Pruned = nil, nil
	if got := wire(); !strings.Contains(got, `"findings":[]`) || strings.Contains(got, `"pruned":`) {
		t.Errorf("empty lists encoded wrongly:\n%s", got)
	}
	if AuditReportFromCore(nil) != nil {
		t.Error("nil report should convert to nil")
	}
}
