package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hypdb"
	"hypdb/api"
	"hypdb/internal/datagen"
)

// newTestServer starts an httptest server over a fresh Server and returns a
// typed client for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, api.NewClient(ts.URL, ts.Client())
}

// addBerkeley registers the Berkeley dataset on srv in process, outside
// any request and its timeout.
func addBerkeley(t *testing.T, srv *Server) {
	t.Helper()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}
}

// berkeleyCSV renders the Berkeley dataset as CSV text.
func berkeleyCSV(t *testing.T) string {
	t.Helper()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDatasetLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	csv := berkeleyCSV(t)

	info, err := c.CreateDataset(ctx, "berkeley", csv)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "berkeley" || info.Rows != datagen.BerkeleyRows() || info.Cols != 3 {
		t.Fatalf("created %+v", info)
	}

	// Duplicate names are rejected: datasets are immutable.
	if _, err := c.CreateDataset(ctx, "berkeley", csv); !hasCode(err, api.CodeDatasetExists, http.StatusConflict) {
		t.Fatalf("duplicate create: %v", err)
	}

	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "berkeley" {
		t.Fatalf("list = %+v", list)
	}

	stats, err := c.Stats(ctx, "berkeley")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != info.Rows || len(stats.Attributes) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	wantAttrs := map[string]int{"Gender": 2, "Department": 6, "Accepted": 2}
	for _, a := range stats.Attributes {
		if wantAttrs[a.Name] != a.Distinct {
			t.Errorf("attribute %s distinct=%d, want %d", a.Name, a.Distinct, wantAttrs[a.Name])
		}
	}

	if err := c.DeleteDataset(ctx, "berkeley"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx, "berkeley"); !hasCode(err, api.CodeDatasetNotFound, http.StatusNotFound) {
		t.Fatalf("stats after delete: %v", err)
	}
	if err := c.DeleteDataset(ctx, "berkeley"); !hasCode(err, api.CodeDatasetNotFound, http.StatusNotFound) {
		t.Fatalf("double delete: %v", err)
	}

	// Raw text/csv upload with the name in the query string.
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
}

func TestRawCSVUpload(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets?name=tiny", "text/csv",
		strings.NewReader("a,b\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var info api.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 2 || info.Cols != 2 {
		t.Fatalf("info = %+v", info)
	}

	// ?shards= on the raw CSV path opens the sharded (appendable)
	// backend instead of being silently ignored.
	resp2, err := http.Post(ts.URL+"/v1/datasets?name=tiny_sharded&shards=2", "text/csv",
		strings.NewReader("a,b\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("sharded upload status %d: %s", resp2.StatusCode, body)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 {
		t.Fatalf("shards = %d, want 2 (query param ignored?)", info.Shards)
	}

	// A malformed value is rejected loudly, not dropped.
	resp3, err := http.Post(ts.URL+"/v1/datasets?name=bad&shards=two", "text/csv",
		strings.NewReader("a,b\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shards value: status %d, want 400", resp3.StatusCode)
	}
}

func TestAnalyzeBerkeley(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Berkeley's causal structure (Gender → Department → Accepted) puts
	// Department in the mediator role: the bias surfaces in the
	// direct-effect verdict, w.r.t. covariates ∪ mediators.
	if !rep.Biased {
		t.Error("Berkeley query not flagged biased")
	}
	if len(rep.Mediators) != 1 || rep.Mediators[0] != "Department" {
		t.Errorf("mediators = %v, want [Department]", rep.Mediators)
	}
	if rep.CD == nil || !rep.CD.UsedFallback {
		t.Errorf("CD summary = %+v, want fallback marked", rep.CD)
	}
	if len(rep.Answer) != 2 {
		t.Fatalf("answer rows = %d, want 2", len(rep.Answer))
	}
	if len(rep.OriginalComparisons) != 1 || rep.OriginalComparisons[0].Diffs[0] <= 0 {
		t.Errorf("original comparison = %+v, want Male−Female > 0", rep.OriginalComparisons)
	}
	if rep.RewrittenDirect == nil {
		t.Fatal("no rewritten direct-effect answer")
	}
	if len(rep.DirectComparisons) != 1 ||
		rep.DirectComparisons[0].Diffs[0] >= rep.OriginalComparisons[0].Diffs[0] {
		t.Errorf("direct comparison = %+v, want smaller than the original diff %v",
			rep.DirectComparisons, rep.OriginalComparisons[0].Diffs[0])
	}
	if rep.Text == "" || !strings.Contains(rep.Text, "SQL Query:") {
		t.Error("report text panel missing")
	}
}

func TestAnalyzeWithWhereAndGroupings(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query: api.Query{
			Treatment: "Gender",
			Outcomes:  []string{"Accepted"},
			Where:     "Department IN ('A','B','C')",
		},
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, row := range rep.Answer {
		n += row.Count
	}
	if n >= datagen.BerkeleyRows() {
		t.Errorf("WHERE clause not applied: %d rows selected", n)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	base := api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}

	cases := []struct {
		name   string
		req    api.AnalyzeRequest
		code   string
		status int
	}{
		{"unknown dataset", api.AnalyzeRequest{Dataset: "nope", Query: base},
			api.CodeDatasetNotFound, http.StatusNotFound},
		{"bad predicate", api.AnalyzeRequest{Dataset: "berkeley",
			Query: api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}, Where: "Gender = "}},
			api.CodeBadPredicate, http.StatusBadRequest},
		{"unknown attribute", api.AnalyzeRequest{Dataset: "berkeley",
			Query: api.Query{Treatment: "Wrong", Outcomes: []string{"Accepted"}}},
			api.CodeUnknownAttribute, http.StatusUnprocessableEntity},
		{"empty selection", api.AnalyzeRequest{Dataset: "berkeley",
			Query: api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}, Where: "Department = 'Z'"}},
			api.CodeEmptySelection, http.StatusUnprocessableEntity},
		{"bad method", api.AnalyzeRequest{Dataset: "berkeley", Query: base,
			Options: api.Options{Method: "magic"}},
			api.CodeBadRequest, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := c.Analyze(ctx, tc.req)
		if !hasCode(err, tc.code, tc.status) {
			t.Errorf("%s: got %v, want code %s status %d", tc.name, err, tc.code, tc.status)
		}
	}

	// Malformed CSV upload.
	if _, err := c.CreateDataset(ctx, "bad", "a,b\n1\n"); !hasCode(err, api.CodeMalformedCSV, http.StatusBadRequest) {
		t.Errorf("ragged CSV: %v", err)
	}
	if _, err := c.CreateDataset(ctx, "bad name!", "a\n1\n"); !hasCode(err, api.CodeBadRequest, http.StatusBadRequest) {
		t.Errorf("bad dataset name: %v", err)
	}
}

// TestAlphaOutOfRangeRejected: a significance level outside [0, 1) is a
// 400 bad_request on every endpoint that takes options, and zero still
// selects the default.
func TestAlphaOutOfRangeRejected(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	addBerkeley(t, srv)
	ctx := context.Background()
	q := api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}
	for _, alpha := range []float64{1.5, -0.1, 0} {
		o := api.Options{Method: "chi2", Alpha: alpha}
		_, aErr := c.Analyze(ctx, api.AnalyzeRequest{Dataset: "berkeley", Query: q, Options: o})
		_, bErr := c.AnalyzeBatch(ctx, api.BatchRequest{Dataset: "berkeley", Queries: []api.Query{q}, Options: o})
		_, uErr := c.Audit(ctx, api.AuditRequest{Dataset: "berkeley", Options: o})
		for endpoint, err := range map[string]error{"analyze": aErr, "batch": bErr, "audit": uErr} {
			if alpha == 0 {
				if err != nil {
					t.Errorf("%s with alpha 0 (the default): %v", endpoint, err)
				}
			} else if !hasCode(err, api.CodeBadRequest, http.StatusBadRequest) {
				t.Errorf("%s with alpha %v: got %v, want 400 %s", endpoint, alpha, err, api.CodeBadRequest)
			}
		}
	}
}

// TestConcurrentAnalyzeSharesDiscovery is the ISSUE's load test: ≥64
// concurrent identical /v1/analyze requests must trigger exactly one
// covariate discovery (the session cache single-flights it) and agree on
// every answer.
func TestConcurrentAnalyzeSharesDiscovery(t *testing.T) {
	// The queue holds all 64 requests: the test checks one shared
	// discovery, not shedding.
	srv, c := newTestServer(t, Config{MaxConcurrentPerDataset: 8, MaxQueuedPerDataset: -1})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}

	const n = 64
	req := api.AnalyzeRequest{
		Dataset: "berkeley",
		// SkipDirect keeps the pipeline to exactly one discovery call per
		// request, so the cache counters are exact.
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 7, SkipDirect: true},
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports []*api.Report
		errs    []error
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rep, err := c.Analyze(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			reports = append(reports, rep)
		}()
	}
	close(start)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d/%d requests failed; first: %v", len(errs), n, errs[0])
	}
	db, ok := srv.DB("berkeley")
	if !ok {
		t.Fatal("dataset vanished")
	}
	st := db.Stats()
	if st.CDComputes != 1 {
		t.Errorf("CDComputes = %d, want 1 — covariate discovery was not shared", st.CDComputes)
	}
	if st.CDHits != n-1 {
		t.Errorf("CDHits = %d, want %d", st.CDHits, n-1)
	}

	// All responses must agree once per-request wall-clock noise (Timing,
	// the rendered Text panel) is stripped.
	norm := func(r *api.Report) *api.Report {
		cp := *r
		cp.Timing = api.Timing{}
		cp.Text = ""
		return &cp
	}
	want := norm(reports[0])
	for i, rep := range reports[1:] {
		if got := norm(rep); !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			t.Fatalf("response %d disagrees:\n got %s\nwant %s", i+1, gj, wj)
		}
	}

	stats, err := c.Stats(ctx, "berkeley")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyses != n {
		t.Errorf("analyses counter = %d, want %d", stats.Analyses, n)
	}
	if stats.Cache.CDComputes != 1 || stats.Cache.CDHits != n-1 {
		t.Errorf("stats cache = %+v", stats.Cache)
	}
}

func TestBatchSharesCache(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	q := api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}
	reps, err := c.AnalyzeBatch(ctx, api.BatchRequest{
		Dataset: "berkeley",
		Queries: []api.Query{q, q, q, q},
		Options: api.Options{Seed: 1, SkipDirect: true, Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("got %d reports", len(reps))
	}
	for i, rep := range reps {
		if rep == nil || len(rep.Answer) != 2 || len(rep.OriginalComparisons) != 1 {
			t.Errorf("report %d = %+v", i, rep)
		}
	}
	db, _ := srv.DB("berkeley")
	if st := db.Stats(); st.CDComputes != 1 {
		t.Errorf("CDComputes = %d, want 1 (batch items share the cache)", st.CDComputes)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.AnalysesTotal != 4 || m.Datasets != 1 || m.Cache.CDComputes != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestBatchIsolatesErrors: a batch mixing valid and invalid queries returns
// per-item error entries aligned with the request order instead of failing
// wholesale — every valid query still gets its report.
func TestBatchIsolatesErrors(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	good := api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}
	bad := api.Query{Treatment: "NoSuchColumn", Outcomes: []string{"Accepted"}}
	reps, errs, err := c.AnalyzeBatchSettled(ctx, api.BatchRequest{
		Dataset: "berkeley",
		Queries: []api.Query{good, bad, good},
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 || len(errs) != 3 {
		t.Fatalf("got %d reports / %d errors, want 3 / 3", len(reps), len(errs))
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("valid query %d failed: %v", i, errs[i])
		}
		if reps[i] == nil || len(reps[i].Answer) != 2 {
			t.Errorf("valid query %d report = %+v", i, reps[i])
		}
	}
	if reps[1] != nil {
		t.Error("invalid query produced a report")
	}
	if errs[1] == nil || errs[1].Code != api.CodeUnknownAttribute {
		t.Errorf("invalid query error = %+v, want %s", errs[1], api.CodeUnknownAttribute)
	}
	if !strings.Contains(errs[1].Message, "query 1") {
		t.Errorf("error message %q does not name its query", errs[1].Message)
	}

	// The strict wrapper keeps the old all-or-nothing contract.
	if _, err := c.AnalyzeBatch(ctx, api.BatchRequest{
		Dataset: "berkeley",
		Queries: []api.Query{good, bad},
		Options: api.Options{Seed: 1, SkipDirect: true},
	}); err == nil {
		t.Error("AnalyzeBatch accepted a batch with a failing query")
	}

	// Batch priming from the batches lands in /v1/metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := srv.DB("berkeley")
	if got, want := m.Planner, db.Stats().Planner; got.Plans != want.Plans || got.Plans == 0 {
		t.Errorf("metrics planner = %+v, session stats = %+v", got, want)
	}
}

// TestRequestTimeout: a Monte-Carlo analysis that cannot finish inside the
// server's request timeout is cancelled and reported as a 504.
func TestRequestTimeout(t *testing.T) {
	srv, c := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	// Registered in process: the 50ms timeout bounds only the analysis.
	addBerkeley(t, srv)
	_, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Method: "mit", Permutations: 50_000_000, Seed: 1},
	})
	if !hasCode(err, api.CodeTimeout, http.StatusGatewayTimeout) {
		t.Fatalf("got %v, want %s", err, api.CodeTimeout)
	}
}

// TestShutdownCancelsInflight: Close propagates cancellation into running
// permutation loops; the stuck request fails fast with 503 instead of
// finishing minutes later.
func TestShutdownCancelsInflight(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, api.AnalyzeRequest{
			Dataset: "berkeley",
			Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
			Options: api.Options{Method: "mit", Permutations: 50_000_000, Seed: 1},
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the permutation loop start
	srv.Close()

	select {
	case err := <-done:
		if !hasCode(err, api.CodeShuttingDown, http.StatusServiceUnavailable) {
			t.Fatalf("in-flight request returned %v, want %s", err, api.CodeShuttingDown)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight analysis did not abort after Close")
	}

	// Every request after Close is rejected outright, analysis or not.
	if _, err := c.Health(ctx); !hasCode(err, api.CodeShuttingDown, http.StatusServiceUnavailable) {
		t.Fatalf("health after Close: %v, want %s", err, api.CodeShuttingDown)
	}
}

// hasCode matches a client error against the service's code and status.
func hasCode(err error, code string, status int) bool {
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Code == code && apiErr.Status == status
}

// TestAuditEndpoint: a lattice sweep over the uploaded Berkeley dataset
// flags Gender→Accepted, accounts for every candidate, and publishes its
// progress in the metrics.
func TestAuditEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley",
		Options: api.Options{Seed: 1, Permutations: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != rep.Evaluated+len(rep.Pruned) {
		t.Errorf("accountability broken: %d candidates, %d evaluated, %d pruned",
			rep.Candidates, rep.Evaluated, len(rep.Pruned))
	}
	var ga *hypdb.AuditFinding
	for i := range rep.Findings {
		if rep.Findings[i].Treatment == "Gender" && rep.Findings[i].Outcome == "Accepted" {
			ga = &rep.Findings[i]
		}
	}
	if ga == nil {
		t.Fatalf("Gender→Accepted not flagged; findings %+v", rep.Findings)
	}
	if !ga.Reversed || ga.AdjustedDiff == nil {
		t.Errorf("Gender→Accepted should carry a reversed adjusted effect: %+v", ga)
	}
	deptResp := false
	for _, r := range ga.Responsible {
		if r.Attr == "Department" {
			deptResp = true
		}
	}
	if !deptResp {
		t.Errorf("Department not in responsible set: %+v", ga.Responsible)
	}
	if rep.Text == "" || !strings.Contains(rep.Text, "RANK") {
		t.Error("audit text panel missing")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.AuditsTotal != 1 || m.AuditsInFlight != 0 {
		t.Errorf("audit counters = total %d inflight %d, want 1/0", m.AuditsTotal, m.AuditsInFlight)
	}
	if len(m.PerDataset) != 1 {
		t.Fatalf("per-dataset metrics = %+v", m.PerDataset)
	}
	ap := m.PerDataset[0].Audit
	if ap.Audits != 1 || ap.Running != 0 {
		t.Errorf("dataset audit progress = %+v, want 1 completed", ap)
	}
	if ap.CandidatesTotal == 0 || ap.CandidatesDone != ap.CandidatesTotal {
		t.Errorf("candidate progress %d/%d, want completed and non-zero", ap.CandidatesDone, ap.CandidatesTotal)
	}
	if int(ap.CandidatesTotal) != rep.Evaluated {
		t.Errorf("metrics candidate total %d != report evaluated %d", ap.CandidatesTotal, rep.Evaluated)
	}
}

// TestAuditErrors: the audit endpoint classifies failures like the rest of
// the API.
func TestAuditErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{Dataset: "nope"}); !hasCode(err, api.CodeDatasetNotFound, http.StatusNotFound) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley", Spec: api.AuditSpec{Where: "Gender IN ("},
	}); !hasCode(err, api.CodeBadPredicate, http.StatusBadRequest) {
		t.Errorf("bad predicate: %v", err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley", Spec: api.AuditSpec{Outcomes: []string{"Missing"}},
	}); !hasCode(err, api.CodeUnknownAttribute, http.StatusUnprocessableEntity) {
		t.Errorf("unknown outcome: %v", err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley", Spec: api.AuditSpec{Where: "Gender = 'Martian'"},
	}); !hasCode(err, api.CodeEmptySelection, http.StatusUnprocessableEntity) {
		t.Errorf("empty selection: %v", err)
	}
	if _, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley", Spec: api.AuditSpec{Outcomes: []string{"Gender"}},
	}); !hasCode(err, api.CodeNonNumericOutcome, http.StatusUnprocessableEntity) {
		t.Errorf("non-numeric outcome: %v", err)
	}
}

// TestAuditTimeoutReconcilesProgress: a sweep killed by the request
// timeout must not leave the metrics invariant broken — once nothing is
// running, candidates_done equals candidates_total.
func TestAuditTimeoutReconcilesProgress(t *testing.T) {
	_, c := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Audit(ctx, api.AuditRequest{
		Dataset: "berkeley",
		Options: api.Options{Method: "mit", Permutations: 50_000_000, Seed: 1},
	})
	if !hasCode(err, api.CodeTimeout, http.StatusGatewayTimeout) {
		t.Fatalf("got %v, want %s", err, api.CodeTimeout)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ap := m.PerDataset[0].Audit
	if ap.Running != 0 || ap.CandidatesDone != ap.CandidatesTotal {
		t.Errorf("failed sweep left progress unreconciled: %+v", ap)
	}
	if ap.Audits != 0 {
		t.Errorf("failed sweep counted as completed: %+v", ap)
	}
}

// TestAppendEndpoint drives the streaming-ingestion surface end to end:
// sharded registration, appends with version bumps, metrics counters, and
// the failure modes (unsharded target, ragged rows, missing dataset).
func TestAppendEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	csv := berkeleyCSV(t)

	info, err := c.CreateShardedDataset(ctx, "berkeley", csv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "sharded" || info.Shards != 4 || info.Version != 1 {
		t.Fatalf("sharded create = %+v", info)
	}
	baseRows := info.Rows

	res, err := c.Append(ctx, "berkeley", [][]string{
		{"Female", "A", "1"}, {"Male", "F", "0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 2 || res.Rows != baseRows+2 || res.Version != 2 {
		t.Fatalf("append = %+v, want 2 rows onto %d at version 2", res, baseRows)
	}

	// The registry reflects the growth: row count, partitions, version.
	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Rows != baseRows+2 || list[0].Version != 2 || list[0].Shards != 5 {
		t.Fatalf("post-append list = %+v", list)
	}

	// Analyses run against the grown dataset.
	rep, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report after append")
	}

	// Metrics expose the append counters, service-wide and per dataset.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.AppendsTotal != 1 || m.RowsAppended != 2 {
		t.Fatalf("metrics appends = %d/%d rows, want 1/2", m.AppendsTotal, m.RowsAppended)
	}
	if len(m.PerDataset) != 1 || m.PerDataset[0].Appends != 1 || m.PerDataset[0].RowsAppended != 2 {
		t.Fatalf("per-dataset metrics = %+v", m.PerDataset)
	}

	// Ragged rows are a client error, reported before touching the backend.
	if _, err := c.Append(ctx, "berkeley", [][]string{{"F"}}); !hasCode(err, api.CodeBadRequest, http.StatusBadRequest) {
		t.Fatalf("ragged append: %v", err)
	}
	// Appends to unsharded datasets are rejected with the sentinel code.
	if _, err := c.CreateDataset(ctx, "plain", csv); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "plain", [][]string{{"Female", "A", "1"}}); !hasCode(err, api.CodeNotAppendable, http.StatusUnprocessableEntity) {
		t.Fatalf("append to mem backend: %v", err)
	}
	if _, err := c.Append(ctx, "nope", [][]string{{"Female", "A", "1"}}); !hasCode(err, api.CodeDatasetNotFound, http.StatusNotFound) {
		t.Fatalf("append to missing dataset: %v", err)
	}
}
