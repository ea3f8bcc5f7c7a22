package server

// Wire golden: the /v1/analyze, /v1/analyze/batch and /v1/audit response
// bodies for the paper's three datasets, pinned byte for byte. Only the
// wall-clock values are masked: every "*_ms" number, the "Timings:" line of
// a report's text panel and the elapsed time of an audit's text panel.
// Regenerate with
//
//	go test ./internal/server -run TestWireGolden -update
//
// and review the diff like code: it is the service's response contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hypdb/api"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/wire golden files")

// bodyRecorder is an http.RoundTripper that keeps the last response body it
// carried, so a test can compare what the typed client decoded with the
// bytes the server sent. The client calls it on the caller's goroutine.
type bodyRecorder struct{ last []byte }

func (r *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.last = body
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

var (
	wireMS      = regexp.MustCompile(`("[a-z_]+_ms"):-?[0-9][0-9.e+-]*`)
	wireTimings = regexp.MustCompile(`\\nTimings: [^\\"]*\\n`)
	wireElapsed = regexp.MustCompile(`(pruned\) in )[0-9.]+[a-zµ]+(\.\\n)`)
)

// maskWire replaces the wall-clock parts of a response body and indents it
// for a readable golden diff.
func maskWire(t *testing.T, body []byte) []byte {
	t.Helper()
	masked := wireMS.ReplaceAll(body, []byte(`$1:"<ms>"`))
	masked = wireTimings.ReplaceAll(masked, []byte(`\nTimings: <masked>\n`))
	masked = wireElapsed.ReplaceAll(masked, []byte(`${1}<elapsed>$2`))
	var out bytes.Buffer
	if err := json.Indent(&out, masked, "", "  "); err != nil {
		t.Fatalf("masked body is not JSON: %v\n%s", err, masked)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// checkWireGolden compares the masked body against testdata/wire/<name>.json,
// or rewrites the file under -update.
func checkWireGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	got := maskWire(t, body)
	path := filepath.Join("testdata", "wire", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (rerun with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response drifted from %s:\n%s", path, firstDiff(string(want), string(got)))
	}
}

// firstDiff renders the first differing line of two texts with its number.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n want: %s\n  got: %s", i+1, wl, gl)
		}
	}
	return "(equal)"
}

// checkRoundTrip re-encodes what the typed client decoded: the bytes must
// be the server's, so the client drops and invents nothing.
func checkRoundTrip(t *testing.T, decoded any, body []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), body) {
		t.Errorf("client round trip changed the response:\n%s", firstDiff(string(body), buf.String()))
	}
}

func tableCSV(t *testing.T, tab *dataset.Table, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWireGolden drives the analysis endpoints over Berkeley, Staples and
// Flight through the typed client and pins each response body. It covers a
// grouped query (contexts), the fixed-covariate Flight query (the
// total-effect rewriting), a batch with a failing query (the errors array)
// and an audit whose support filter prunes candidates.
func TestWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full analyses and audits")
	}
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	rec := &bodyRecorder{}
	c := api.NewClient(ts.URL, &http.Client{Transport: rec})
	ctx := context.Background()

	berkeley, err := datagen.Berkeley(1)
	staples, serr := datagen.Staples(20000, 1)
	flight, ferr := datagen.Flight(12000, 1)
	for name, csv := range map[string]string{
		"berkeley": tableCSV(t, berkeley, err),
		"staples":  tableCSV(t, staples, serr),
		"flight":   tableCSV(t, flight, ferr),
	} {
		if _, err := c.CreateDataset(ctx, name, csv); err != nil {
			t.Fatal(err)
		}
	}

	flightQuery := api.Query{
		Treatment: "Carrier", Outcomes: []string{"Delayed"},
		Where: "Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC')",
	}
	flightOpts := api.Options{Seed: 1, Permutations: 200}
	fixedOpts := flightOpts
	fixedOpts.Covariates = datagen.FlightCovariates()
	fixedOpts.SkipDirect = true
	analyses := []struct {
		name string
		req  api.AnalyzeRequest
	}{
		{"analyze_berkeley", api.AnalyzeRequest{Dataset: "berkeley",
			Query: api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}, Options: api.Options{Seed: 1}}},
		{"analyze_staples", api.AnalyzeRequest{Dataset: "staples",
			Query: api.Query{Treatment: "Income", Outcomes: []string{"Price"}}, Options: api.Options{Seed: 1}}},
		{"analyze_flight", api.AnalyzeRequest{Dataset: "flight", Query: flightQuery, Options: flightOpts}},
		{"analyze_flight_fixed_covariates", api.AnalyzeRequest{Dataset: "flight", Query: flightQuery, Options: fixedOpts}},
	}
	for _, a := range analyses {
		t.Run(a.name, func(t *testing.T) {
			rep, err := c.Analyze(ctx, a.req)
			if err != nil {
				t.Fatal(err)
			}
			checkWireGolden(t, a.name, rec.last)
			checkRoundTrip(t, rep, rec.last)
		})
	}

	t.Run("batch_berkeley", func(t *testing.T) {
		reps, errs, err := c.AnalyzeBatchSettled(ctx, api.BatchRequest{
			Dataset: "berkeley",
			Queries: []api.Query{
				{Treatment: "Gender", Groupings: []string{"Department"}, Outcomes: []string{"Accepted"}},
				{Treatment: "Gender", Outcomes: []string{"NoSuchColumn"}},
			},
			Options: api.Options{Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if reps[0] == nil || errs[1] == nil || errs[1].Code != api.CodeUnknownAttribute {
			t.Fatalf("batch = %v / %v, want a report then an unknown_attribute error", reps, errs)
		}
		checkWireGolden(t, "batch_berkeley", rec.last)
		checkRoundTrip(t, &api.BatchResponse{Reports: reps, Errors: errs}, rec.last)
	})

	audits := []struct {
		name string
		req  api.AuditRequest
	}{
		{"audit_berkeley", api.AuditRequest{Dataset: "berkeley", Options: api.Options{Seed: 1, Permutations: 200}}},
		{"audit_staples", api.AuditRequest{Dataset: "staples", Options: api.Options{Seed: 1, Permutations: 200}}},
		{"audit_flight", api.AuditRequest{Dataset: "flight", Spec: api.AuditSpec{
			Treatments: []string{"Carrier", "Airport", "DayOfWeek"}, Outcomes: []string{"Delayed", "ArrDelayed"},
			Where: flightQuery.Where,
		}, Options: api.Options{Seed: 1, Method: "chi2"}}},
		{"audit_staples_min_support", api.AuditRequest{Dataset: "staples",
			Spec: api.AuditSpec{MinSupport: 3000}, Options: api.Options{Seed: 1, Permutations: 200}}},
	}
	for _, a := range audits {
		t.Run(a.name, func(t *testing.T) {
			rep, err := c.Audit(ctx, a.req)
			if err != nil {
				t.Fatal(err)
			}
			checkWireGolden(t, a.name, rec.last)
			checkRoundTrip(t, rep, rec.last)
		})
	}
}
