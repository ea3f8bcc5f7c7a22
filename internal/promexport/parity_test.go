package promexport_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hypdb/api"
	"hypdb/internal/datagen"
	"hypdb/internal/promexport"
	"hypdb/internal/server"
)

// numericPaths walks a wire struct collecting the dotted JSON paths of
// every numeric (or bool, or numeric-map) leaf — exactly the values the
// Prometheus view must also carry. Strings are labels, not samples, and
// are skipped; any kind the walker does not recognize fails the test so a
// new field shape forces an explicit decision here.
func numericPaths(t *testing.T, typ reflect.Type, prefix string, out map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "-" || tag == "" {
			t.Fatalf("field %s.%s has no usable json tag", typ.Name(), f.Name)
		}
		path := tag
		if prefix != "" {
			path = prefix + "." + tag
		}
		ft := f.Type
		switch ft.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
			out[path] = true
		case reflect.String:
			// Label value (dataset name, peer URL) — identifies series, not
			// a sample of its own.
		case reflect.Struct:
			numericPaths(t, ft, path, out)
		case reflect.Slice:
			if ft.Elem().Kind() != reflect.Struct {
				t.Fatalf("field %s: slice of %s unsupported by the parity walker", path, ft.Elem().Kind())
			}
			numericPaths(t, ft.Elem(), path, out)
		case reflect.Map:
			if ft.Key().Kind() != reflect.String || ft.Elem().Kind() != reflect.Int64 {
				t.Fatalf("field %s: map %s unsupported by the parity walker", path, ft)
			}
			out[path] = true // one labeled family per map
		default:
			t.Fatalf("field %s: kind %s unsupported by the parity walker", path, ft.Kind())
		}
	}
}

// fullSnapshot populates every family class — service-wide, per-client,
// catalog, per-dataset, per-peer — so Collect emits the complete registry.
func fullSnapshot() api.Metrics {
	return api.Metrics{
		UptimeSeconds: 12.5, Datasets: 1, RequestsTotal: 9, RequestsInFlight: 1,
		AnalysesTotal: 3, AuditsTotal: 2, AuditsInFlight: 1, AppendsTotal: 4,
		RowsAppended: 40, CountsServed: 5, RateLimited: 6,
		RateLimitedByClient: map[string]int64{"alice": 4, "other": 2},
		Admission: api.AdmissionMetrics{
			Admitted: 7, Queued: 1, ShedQueueFull: 2, ShedDeadline: 3, ShedDraining: 4, Cancelled: 5,
		},
		Cache:   api.CacheStats{CDComputes: 2, CDHits: 8},
		Planner: api.PlannerStats{Plans: 1, Cuboids: 2, RoundTripsSaved: 6},
		Catalog: api.CatalogMetrics{JournalRecords: 3, RecoveredDatasets: 2, ReplayedAppends: 1},
		PerDataset: []api.DatasetMetrics{{
			Name: "d", Rows: 100, Analyses: 3, Appends: 4, RowsAppended: 40,
			CountsServed: 5, DegradedServes: 1,
			Admission: api.AdmissionMetrics{Admitted: 7, Queued: 1, ShedQueueFull: 2, ShedDeadline: 3, ShedDraining: 4, Cancelled: 5},
			Audit:     api.AuditProgress{Audits: 2, Running: 1, CandidatesDone: 10, CandidatesTotal: 12},
			Cache:     api.CacheStats{CDComputes: 2, CDHits: 8},
			Planner:   api.PlannerStats{Plans: 1, Cuboids: 2, RoundTripsSaved: 6},
			Remote: []api.PeerMetrics{{
				URL: "http://peer:1", Version: 7, Healthy: true,
				Requests: 11, Retries: 1, Errors: 2, CountsServed: 9,
				LastRTTMillis: 1.25, AvgRTTMillis: 2.5,
			}},
		}},
	}
}

// TestFieldFamilyBijection pins the JSON↔Prometheus mapping from both
// sides: every numeric api.Metrics field maps to a family, every mapped
// family is actually emitted, and nothing is emitted outside the map. A
// counter added to one view fails here naming the missing side.
func TestFieldFamilyBijection(t *testing.T) {
	want := make(map[string]bool)
	numericPaths(t, reflect.TypeOf(api.Metrics{}), "", want)

	mapping := promexport.FieldFamilies()
	for path := range want {
		if _, ok := mapping[path]; !ok {
			t.Errorf("api.Metrics field %q has no Prometheus family (JSON view only)", path)
		}
	}
	for path := range mapping {
		if !want[path] {
			t.Errorf("FieldFamilies maps %q, which is not a numeric api.Metrics field", path)
		}
	}

	mapped := make(map[string]bool)
	for _, fam := range mapping {
		mapped[fam] = true
	}
	emitted := make(map[string]bool)
	for _, f := range promexport.Collect(fullSnapshot()) {
		emitted[f.Name] = true
	}
	for fam := range mapped {
		if !emitted[fam] {
			t.Errorf("family %q is mapped but never emitted (Prometheus view missing it)", fam)
		}
	}
	for fam := range emitted {
		if !mapped[fam] {
			t.Errorf("family %q is emitted but absent from FieldFamilies (JSON view missing it)", fam)
		}
	}
}

// TestJSONAndPromValuesAgree holds the two live views to the same numbers:
// under a fixed clock and a quiesced server, rendering the decoded
// /v1/metrics JSON through promexport must reproduce the /metrics scrape
// byte for byte. The only delta is the scrape itself — one more request on
// the counter — which the test accounts for explicitly.
func TestJSONAndPromValuesAgree(t *testing.T) {
	t0 := time.Now()
	srv := server.New(server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Shards: 2,
		Clock:  func() time.Time { return t0 },
	})
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := api.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	// Move every counter class, then quiesce.
	if _, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "berkeley", [][]string{{"Female", "A", "1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley",
		Spec:    api.AuditSpec{Treatments: []string{"Gender"}, Outcomes: []string{"Accepted"}, TopK: 3},
		Options: api.Options{Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The scrape arrived one request after the JSON view; everything else
	// is frozen (fixed clock, no in-flight work, both serves count
	// themselves in flight identically).
	m.RequestsTotal++
	var want bytes.Buffer
	if err := promexport.Render(&want, *m); err != nil {
		t.Fatal(err)
	}
	if want.String() != text {
		t.Fatalf("views disagree:\n%s", diffLines(want.String(), text))
	}
}

// diffLines renders a compact line diff for the parity failure message.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			sb.WriteString("json-derived: " + w + "\nscrape:       " + g + "\n")
		}
	}
	if sb.Len() == 0 {
		return "(no differing lines)"
	}
	return sb.String()
}

// TestFamilyRegistryOrderStable pins that Collect returns families in
// registry order with series sorted by label values — the determinism the
// byte-equality test above relies on.
func TestFamilyRegistryOrderStable(t *testing.T) {
	fams := promexport.Collect(fullSnapshot())
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
		vals := make([]string, len(f.Series))
		for j, s := range f.Series {
			vals[j] = labelValues(s.Labels)
		}
		if !sort.StringsAreSorted(vals) {
			t.Errorf("family %s series not sorted by label values: %v", f.Name, vals)
		}
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("family %s appears twice in Collect output", n)
		}
		seen[n] = true
	}
}

func labelValues(ls []promexport.Label) string {
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Value)
		sb.WriteByte(0)
	}
	return sb.String()
}
