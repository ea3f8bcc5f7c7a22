package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"hypdb/api"
	"hypdb/internal/datagen"
	"hypdb/internal/memsql"
)

// startCatalogServer boots a Server with a persistent catalog rooted at
// dir, mirroring the production boot order: OpenCatalog, flag-driven
// registrations (none here), Recover, serve. The returned stop function
// shuts the incarnation down so a successor can reopen the same dir.
func startCatalogServer(t *testing.T, dir string, cfg Config) (*Server, *api.Client, func()) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(cfg)
	if err := srv.OpenCatalog(dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var stopped bool
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		srv.Close()
	}
	t.Cleanup(stop)
	return srv, api.NewClient(ts.URL, ts.Client()), stop
}

// goldenReport renders an analysis as comparison-stable JSON: wall-clock
// timings are zeroed, everything else must reproduce byte-for-byte.
func goldenReport(t *testing.T, c *api.Client, dataset string) []byte {
	t.Helper()
	rep, err := c.Analyze(context.Background(), api.AnalyzeRequest{
		Dataset: dataset,
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1},
	})
	if err != nil {
		t.Fatalf("analyze %s: %v", dataset, err)
	}
	rep.Timing = api.Timing{}
	// The text panel embeds the same wall-clock timings in prose; scrub
	// its trailing Timings line too.
	if i := strings.LastIndex(rep.Text, "\nTimings:"); i >= 0 {
		rep.Text = rep.Text[:i]
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// auditElapsedRE matches the wall-clock prose the audit header embeds —
// a Go duration string such as "in 5ms." or "in 0s." — the one
// nondeterministic part of AuditReport.Text.
var auditElapsedRE = regexp.MustCompile(`in \d[^ ]*\.\n`)

// goldenAudit renders a lattice audit as comparison-stable JSON (elapsed
// wall-clock zeroed and scrubbed from the prose).
func goldenAudit(t *testing.T, c *api.Client, dataset string) []byte {
	t.Helper()
	rep, err := c.Audit(context.Background(), api.AuditRequest{
		Dataset: dataset,
		Spec:    api.AuditSpec{Treatments: []string{"Gender"}, Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1},
	})
	if err != nil {
		t.Fatalf("audit %s: %v", dataset, err)
	}
	rep.ElapsedMS = 0
	rep.Text = auditElapsedRE.ReplaceAllString(rep.Text, "in ?.\n")
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestartReplayGoldens: every catalog kind — spilled CSV (mem and
// sharded), SQL, remote — survives a full server restart via journal
// replay: registrations come back without re-upload, a replayed append
// re-pins the sharded snapshot version to 2, a deleted dataset stays
// gone, and seeded analyses reproduce byte-identical reports.
func TestRestartReplayGoldens(t *testing.T) {
	registerBerkeleySQL(t)

	// The remote peer outlives both coordinator incarnations, like a real
	// peer across a coordinator restart.
	peer, peerURL := newPeerServer(t, Config{Shards: 2})
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{AllowSQLDrivers: []string{memsql.DriverName}}

	srv1, c1, stop1 := startCatalogServer(t, dir, cfg)
	if _, err := c1.CreateDataset(ctx, "mem_ds", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateShardedDataset(ctx, "sharded_ds", berkeleyCSV(t), 2); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Append(ctx, "sharded_ds", [][]string{
		{"Female", "A", "1"}, {"Male", "F", "0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("append version = %d, want 2", res.Version)
	}
	if _, err := c1.CreateSQLDataset(ctx, "sql_ds", memsql.DriverName, "", "berkeley_sql"); err != nil {
		t.Fatal(err)
	}
	if err := srv1.AddRemoteDataset(ctx, "berkeley", []string{peerURL}, false); err != nil {
		t.Fatal(err)
	}
	// A deleted dataset must stay deleted across the restart.
	if _, err := c1.CreateDataset(ctx, "gone", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	if err := c1.DeleteDataset(ctx, "gone"); err != nil {
		t.Fatal(err)
	}

	datasets := []string{"mem_ds", "sharded_ds", "sql_ds", "berkeley"}
	goldens := make(map[string][]byte, len(datasets))
	auditGoldens := make(map[string][]byte, len(datasets))
	for _, name := range datasets {
		goldens[name] = goldenReport(t, c1, name)
		auditGoldens[name] = goldenAudit(t, c1, name)
	}
	stop1()

	// Second incarnation: same data dir, no re-registration by hand.
	_, c2, _ := startCatalogServer(t, dir, cfg)
	list, err := c2.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]api.DatasetInfo, len(list))
	for _, info := range list {
		byName[info.Name] = info
	}
	if len(byName) != len(datasets) {
		t.Fatalf("recovered %d datasets (%v), want %d", len(byName), list, len(datasets))
	}
	if _, ok := byName["gone"]; ok {
		t.Fatal("deleted dataset resurrected by replay")
	}
	if got := byName["sharded_ds"]; got.Version != 2 || got.Rows != datagen.BerkeleyRows()+2 {
		t.Fatalf("sharded_ds after replay = %+v, want version 2 with the appended rows", got)
	}
	for _, name := range datasets {
		if got := goldenReport(t, c2, name); !bytes.Equal(got, goldens[name]) {
			t.Errorf("%s: report changed across restart:\n  before: %s\n  after:  %s",
				name, goldens[name], got)
		}
		if got := goldenAudit(t, c2, name); !bytes.Equal(got, auditGoldens[name]) {
			t.Errorf("%s: audit report changed across restart:\n  before: %s\n  after:  %s",
				name, auditGoldens[name], got)
		}
	}
}

// TestAuthScopes: with tokens configured, every endpoint except /healthz
// requires a bearer token; reader tokens may analyze and observe but not
// mutate; operator tokens may mutate and trigger shutdown.
func TestAuthScopes(t *testing.T) {
	shutdownCalled := make(chan struct{}, 1)
	cfg := Config{
		Tokens: []Token{
			{Secret: "op-secret", Name: "op", Scope: ScopeOperator},
			{Secret: "read-secret", Name: "analyst", Scope: ScopeReader},
		},
		OnShutdown: func() { shutdownCalled <- struct{}{} },
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	ctx := context.Background()
	anon := api.NewClient(ts.URL, ts.Client())
	bad := api.NewClient(ts.URL, ts.Client(), api.WithToken("wrong"))
	reader := api.NewClient(ts.URL, ts.Client(), api.WithToken("read-secret"))
	op := api.NewClient(ts.URL, ts.Client(), api.WithToken("op-secret"))

	// /healthz stays tokenless so probes work before credentials are wired.
	if _, err := anon.Health(ctx); err != nil {
		t.Fatalf("tokenless healthz: %v", err)
	}
	if _, err := anon.Datasets(ctx); !hasCode(err, api.CodeUnauthorized, http.StatusUnauthorized) {
		t.Fatalf("missing token: %v", err)
	}
	if _, err := bad.Datasets(ctx); !hasCode(err, api.CodeUnauthorized, http.StatusUnauthorized) {
		t.Fatalf("unknown token: %v", err)
	}

	csv := berkeleyCSV(t)
	if _, err := reader.CreateDataset(ctx, "berkeley", csv); !hasCode(err, api.CodeForbidden, http.StatusForbidden) {
		t.Fatalf("reader create: %v", err)
	}
	if _, err := op.CreateDataset(ctx, "berkeley", csv); err != nil {
		t.Fatalf("operator create: %v", err)
	}
	if _, err := reader.Datasets(ctx); err != nil {
		t.Fatalf("reader list: %v", err)
	}
	if _, err := reader.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	}); err != nil {
		t.Fatalf("reader analyze: %v", err)
	}
	if _, err := reader.Append(ctx, "berkeley", [][]string{{"Female", "A", "1"}}); !hasCode(err, api.CodeForbidden, http.StatusForbidden) {
		t.Fatalf("reader append: %v", err)
	}
	if err := reader.DeleteDataset(ctx, "berkeley"); !hasCode(err, api.CodeForbidden, http.StatusForbidden) {
		t.Fatalf("reader delete: %v", err)
	}
	if err := reader.Shutdown(ctx); !hasCode(err, api.CodeForbidden, http.StatusForbidden) {
		t.Fatalf("reader shutdown: %v", err)
	}

	if err := op.Shutdown(ctx); err != nil {
		t.Fatalf("operator shutdown: %v", err)
	}
	select {
	case <-shutdownCalled:
	case <-time.After(5 * time.Second):
		t.Fatal("OnShutdown hook never invoked")
	}

	// Without an OnShutdown hook the endpoint stays disabled even for
	// operators.
	_, gated := newTestServer(t, Config{})
	if err := gated.Shutdown(ctx); !hasCode(err, api.CodeForbidden, http.StatusForbidden) {
		t.Fatalf("shutdown without hook: %v", err)
	}
}

// waitQueued polls until the dataset's fair queue reports depth n.
func waitQueued(t *testing.T, srv *Server, dataset string, n int) {
	t.Helper()
	e, apiErr := srv.lookup(dataset)
	if apiErr != nil {
		t.Fatalf("lookup %s: %v", dataset, apiErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.queue.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", n, e.queue.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsTyped: when the fair queue is full, excess requests are
// shed immediately with a typed 503 overloaded carrying a Retry-After
// header — never a silent hang — while the queued request completes once a
// slot frees, and /v1/metrics reconciles the sheds.
func TestOverloadShedsTyped(t *testing.T) {
	srv, baseURL := newPeerServer(t, Config{MaxConcurrentPerDataset: 1, MaxQueuedPerDataset: 1})
	c := api.NewClient(baseURL, nil)
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	e, apiErr := srv.lookup("berkeley")
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	// Hog the single execution slot so the next request queues.
	hogRelease, err := e.queue.Acquire(ctx, "hog", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, req)
		queuedErr <- err
	}()
	waitQueued(t, srv, "berkeley", 1)

	// The queue is at its depth bound: the next request sheds, typed.
	_, err = c.Analyze(ctx, req)
	if !hasCode(err, api.CodeOverloaded, http.StatusServiceUnavailable) {
		t.Fatalf("overflow request: %v, want 503 overloaded", err)
	}
	var shed *api.Error
	if !asAPIError(err, &shed) || shed.RetryAfter() <= 0 {
		t.Fatalf("overflow rejection carries no retry hint: %+v", shed)
	}

	// Raw round trip: the Retry-After header itself must be present.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("raw overflow: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Freeing the slot lets the queued request run to completion.
	hogRelease()
	select {
	case err := <-queuedErr:
		if err != nil {
			t.Fatalf("queued request failed after slot freed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Admission.ShedQueueFull < 2 {
		t.Errorf("shed_queue_full = %d, want >= 2", m.Admission.ShedQueueFull)
	}
	if m.Admission.Queued != 0 {
		t.Errorf("queued = %d after drain, want 0", m.Admission.Queued)
	}
	if m.Admission.Admitted == 0 {
		t.Error("admitted = 0, want the completed analyze counted")
	}
}

// TestRateLimiterSheds429: a client over its per-identity rate is shed
// with 429 rate_limited + Retry-After, while /healthz and GET /v1/metrics
// stay exempt so operators can observe the overload; the metrics count
// the sheds.
func TestRateLimiterSheds429(t *testing.T) {
	_, c := newTestServer(t, Config{RatePerClient: 0.01, RateBurst: 1})
	ctx := context.Background()

	// The single burst token admits exactly one data-plane request.
	if _, err := c.Datasets(ctx); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	_, err := c.Datasets(ctx)
	if !hasCode(err, api.CodeRateLimited, http.StatusTooManyRequests) {
		t.Fatalf("second request: %v, want 429 rate_limited", err)
	}
	var shed *api.Error
	if !asAPIError(err, &shed) || shed.RetryAfter() <= 0 {
		t.Fatalf("429 carries no retry hint: %+v", shed)
	}

	// Observability stays reachable while the client is limited.
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("healthz while limited: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics while limited: %v", err)
	}
	if m.RateLimited < 1 {
		t.Errorf("rate_limited = %d, want >= 1", m.RateLimited)
	}
}

// TestGracefulDrainUnderLoad (the drain-under-load satellite): Drain with
// a non-empty fair queue sheds the queued requests with 503 shutting_down
// + Retry-After, rejects new work the same way, keeps /healthz and GET
// /v1/metrics answering, reconciles the metrics, and still accepts the
// releases of admitted work.
func TestGracefulDrainUnderLoad(t *testing.T) {
	srv, c := newTestServer(t, Config{MaxConcurrentPerDataset: 1})
	ctx := context.Background()
	if _, err := c.CreateDataset(ctx, "berkeley", berkeleyCSV(t)); err != nil {
		t.Fatal(err)
	}
	e, apiErr := srv.lookup("berkeley")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	req := api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	}
	// A pre-drain request completes normally (and seeds the queue's
	// hold-time history, so drain retry hints are informed).
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Admitted work: holds the only slot across the drain.
	hogRelease, err := e.queue.Acquire(ctx, "hog", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, req)
		queuedErr <- err
	}()
	waitQueued(t, srv, "berkeley", 1)

	srv.Drain()

	// The queued request is shed, typed, with a retry hint — not hung.
	select {
	case err := <-queuedErr:
		if !hasCode(err, api.CodeShuttingDown, http.StatusServiceUnavailable) {
			t.Fatalf("queued request during drain: %v, want 503 shutting_down", err)
		}
		var shed *api.Error
		if !asAPIError(err, &shed) || shed.RetryAfter() <= 0 {
			t.Fatalf("drain rejection carries no retry hint: %+v", shed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request hung through Drain")
	}

	// Fresh work is rejected at the door.
	if _, err := c.Analyze(ctx, req); !hasCode(err, api.CodeShuttingDown, http.StatusServiceUnavailable) {
		t.Fatalf("fresh request during drain: %v, want 503 shutting_down", err)
	}

	// Probes and dashboards keep working; the metrics reconcile.
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics during drain: %v", err)
	}
	if m.Admission.ShedDraining < 1 {
		t.Errorf("shed_draining = %d, want >= 1", m.Admission.ShedDraining)
	}
	if m.Admission.Queued != 0 {
		t.Errorf("queued = %d during drain, want 0 (everything shed)", m.Admission.Queued)
	}

	// Admitted work finishes: its release is still accepted.
	hogRelease()
}

// TestDeadlineUnmeetableShedsTyped: a request whose deadline cannot be met
// given the queue's backlog estimate is shed immediately with a typed 503
// overloaded + Retry-After, instead of waiting out its deadline for a
// bare timeout.
func TestDeadlineUnmeetableShedsTyped(t *testing.T) {
	srv, c := newTestServer(t, Config{
		MaxConcurrentPerDataset: 1,
		RequestTimeout:          20 * time.Millisecond,
	})
	ctx := context.Background()
	// Registered in process: the 20ms timeout bounds only the analysis.
	addBerkeley(t, srv)
	e, apiErr := srv.lookup("berkeley")
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	// Teach the queue that work holds a slot for ~200ms.
	rel, err := e.queue.Acquire(ctx, "prime", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	rel()

	// Hog the slot: the next request would wait ~200ms, far past its 20ms
	// deadline.
	hogRelease, err := e.queue.Acquire(ctx, "hog", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hogRelease()

	start := time.Now()
	_, err = c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if !hasCode(err, api.CodeOverloaded, http.StatusServiceUnavailable) {
		t.Fatalf("unmeetable deadline: %v, want typed 503 overloaded", err)
	}
	var shed *api.Error
	if !asAPIError(err, &shed) || shed.RetryAfter() <= 0 {
		t.Fatalf("deadline shed carries no retry hint: %+v", shed)
	}
	// Shed on arrival, not after waiting out the deadline in the queue.
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("shed took %v, want immediate rejection", waited)
	}
	if got := e.queue.Stats().ShedDeadline; got < 1 {
		t.Errorf("shed_deadline = %d, want >= 1", got)
	}
}

// asAPIError unwraps err into an *api.Error.
func asAPIError(err error, target **api.Error) bool {
	return errors.As(err, target)
}
