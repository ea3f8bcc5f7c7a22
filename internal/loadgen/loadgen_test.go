package loadgen

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"hypdb/api"
	"hypdb/internal/datagen"
	"hypdb/internal/server"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	// Quantile bounds are bucket upper edges: conservative, never under
	// the true quantile, and max-clamped.
	if p50 := h.quantile(0.50); p50 < 50*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("p50 = %v, want a bound in [50ms, 80ms]", p50)
	}
	if p99 := h.quantile(0.99); p99 < 99*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v, want a bound in [99ms, 100ms] (max-clamped)", p99)
	}
	if max := h.quantile(1.0); max != 100*time.Millisecond {
		t.Errorf("p100 = %v, want the max", max)
	}
	s := h.summarize()
	if s.Count != 100 || s.MeanMS < 50 || s.MeanMS > 51 {
		t.Errorf("summary = %+v, want count 100 mean ~50.5ms", s)
	}
	var empty Histogram
	if empty.quantile(0.99) != 0 || empty.summarize().Count != 0 {
		t.Error("empty histogram not zero-valued")
	}
}

// testBed is a hypdbd instance with a sharded berkeley dataset, the shape
// every chaos scenario starts from.
type testBed struct {
	srv  *server.Server
	ts   *httptest.Server
	c    *api.Client
	rows int
}

func newTestBed(t *testing.T, cfg server.Config) *testBed {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := api.NewClient(ts.URL, ts.Client())
	info, err := c.CreateShardedDataset(context.Background(), "berkeley", berkeleyCSV(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	return &testBed{srv: srv, ts: ts, c: c, rows: info.Rows}
}

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

var defaultQuery = api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}}

// appendBatch is two rows so epoch purity is checkable: any report total
// not landing on a two-row boundary mixed snapshots.
var appendBatch = [][]string{{"Female", "A", "1"}, {"Male", "F", "0"}}

// TestOverloadedMixShedsNotHangs: an analyze/append/metrics mix against a
// deliberately tiny server (one slot, one queue seat, rate limit on)
// sheds loudly, hangs never, and keeps every successful report on one
// snapshot epoch.
func TestOverloadedMixShedsNotHangs(t *testing.T) {
	bed := newTestBed(t, server.Config{
		MaxConcurrentPerDataset: 1,
		MaxQueuedPerDataset:     1,
		// The rate limiter makes shedding deterministic even when every
		// analyze finishes in microseconds: 6 workers comfortably exceed
		// 50 req/s.
		RatePerClient: 50,
		RateBurst:     1,
	})
	r := New(Config{
		Client:            bed.c,
		Dataset:           "berkeley",
		Query:             defaultQuery,
		AppendRows:        appendBatch,
		BaseRows:          bed.rows,
		Workers:           6,
		Duration:          800 * time.Millisecond,
		PerRequestTimeout: 30 * time.Second,
		Mix:               Mix{Analyze: 6, Append: 2, Metrics: 1},
	})
	res := r.Run(context.Background())
	if v := res.Violations(20 * time.Second); len(v) != 0 {
		t.Fatalf("violations: %v (samples: %v)", v, res.ErrorSamples)
	}
	if res.Counts.OK == 0 {
		t.Fatal("no request succeeded under load")
	}
	if res.Counts.Shed == 0 {
		t.Fatal("a one-slot one-seat server under 6 workers shed nothing — admission control inactive?")
	}
	if res.Counts.TypedErrors > 0 || res.Counts.Transport > 0 {
		t.Errorf("unexpected failures: %+v (samples: %v)", res.Counts, res.ErrorSamples)
	}
	if _, ok := res.Latency[OpAnalyze]; !ok {
		t.Error("no analyze latency recorded")
	}
}

// TestFairQueueProtectsLightTenant: a heavy tenant oversubscribes a
// one-slot dataset 8× while a light tenant issues one request at a time.
// The weighted fair queue interleaves per client identity, so the light
// tenant's latency tracks its own (single-file) demand rather than the
// heavy tenant's backlog: every light request succeeds and its p99 stays
// within budget.
func TestFairQueueProtectsLightTenant(t *testing.T) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(server.Config{
		Logger:                  discard,
		MaxConcurrentPerDataset: 1,
		MaxQueuedPerDataset:     -1, // unbounded: isolate fair ordering, not shedding
		Tokens: []server.Token{
			{Secret: "op-secret", Name: "op", Scope: server.ScopeOperator},
			{Secret: "heavy-secret", Name: "heavy", Scope: server.ScopeReader},
			{Secret: "light-secret", Name: "light", Scope: server.ScopeReader},
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	op := api.NewClient(ts.URL, ts.Client(), api.WithToken("op-secret"))
	info, err := op.CreateShardedDataset(context.Background(), "berkeley", berkeleyCSV(t), 2)
	if err != nil {
		t.Fatal(err)
	}

	newRunner := func(secret string, workers int) *Runner {
		return New(Config{
			Client:            api.NewClient(ts.URL, ts.Client(), api.WithToken(secret)),
			Dataset:           "berkeley",
			Query:             defaultQuery,
			BaseRows:          info.Rows,
			Workers:           workers,
			Duration:          1200 * time.Millisecond,
			PerRequestTimeout: 30 * time.Second,
			Mix:               Mix{Analyze: 1},
		})
	}
	heavy := newRunner("heavy-secret", 8)
	light := newRunner("light-secret", 1)

	heavyDone := make(chan *Result, 1)
	go func() { heavyDone <- heavy.Run(context.Background()) }()
	lightRes := light.Run(context.Background())
	heavyRes := <-heavyDone

	if heavyRes.Counts.OK == 0 {
		t.Fatal("heavy tenant made no progress")
	}
	c := lightRes.Counts
	if c.OK == 0 {
		t.Fatalf("light tenant starved: %+v (samples: %v)", c, lightRes.ErrorSamples)
	}
	if c.Shed != 0 || c.TypedErrors != 0 || c.Transport != 0 || c.Hung != 0 {
		t.Fatalf("light tenant failed under another tenant's flood: %+v (samples: %v)",
			c, lightRes.ErrorSamples)
	}
	// The budget is deliberately generous for CI noise; without fair
	// queueing the light tenant would instead sit behind the heavy
	// tenant's entire backlog on every single request.
	if p99 := lightRes.Latency[OpAnalyze].P99MS; p99 > 1000 {
		t.Errorf("light tenant p99 = %.1fms under a heavy flood, want within 1000ms budget", p99)
	}
}

// TestMidFlightRestart: the server is stopped and a new incarnation
// recovers the catalog while the load keeps running. Requests during the
// window fail as transport errors — never hangs — and once the load is
// repointed, analyses succeed against the replayed dataset with epoch
// purity intact across the restart.
func TestMidFlightRestart(t *testing.T) {
	dir := t.TempDir()
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))

	boot := func() (*server.Server, *httptest.Server, *api.Client) {
		srv := server.New(server.Config{Logger: discard})
		if err := srv.OpenCatalog(dir); err != nil {
			t.Fatal(err)
		}
		if err := srv.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts, api.NewClient(ts.URL, ts.Client())
	}

	srv1, ts1, c1 := boot()
	info, err := c1.CreateShardedDataset(context.Background(), "berkeley", berkeleyCSV(t), 2)
	if err != nil {
		t.Fatal(err)
	}

	r := New(Config{
		Client:            c1,
		Dataset:           "berkeley",
		Query:             defaultQuery,
		AppendRows:        appendBatch,
		BaseRows:          info.Rows,
		Workers:           4,
		Duration:          1200 * time.Millisecond,
		PerRequestTimeout: 30 * time.Second,
		Mix:               Mix{Analyze: 5, Append: 2},
	})
	done := make(chan *Result, 1)
	go func() { done <- r.Run(context.Background()) }()

	// Kill the first incarnation mid-run, then bring up the successor on
	// the same catalog and repoint the load.
	time.Sleep(400 * time.Millisecond)
	ts1.Close()
	srv1.Close()
	srv2, ts2, c2 := boot()
	t.Cleanup(ts2.Close)
	t.Cleanup(srv2.Close)
	r.client.Store(c2)

	res := <-done
	if v := res.Violations(20 * time.Second); len(v) != 0 {
		t.Fatalf("violations: %v (samples: %v)", v, res.ErrorSamples)
	}
	if res.Counts.OK == 0 {
		t.Fatal("no request succeeded around the restart")
	}

	// The successor must have replayed the catalog: the dataset is there,
	// and its rows sit on an exact append-batch boundary.
	stats, err := c2.Stats(context.Background(), "berkeley")
	if err != nil {
		t.Fatalf("dataset lost across restart: %v", err)
	}
	if diff := stats.Rows - info.Rows; diff < 0 || diff%len(appendBatch) != 0 {
		t.Fatalf("rows after restart = %d (base %d): journal lost or tore an append", stats.Rows, info.Rows)
	}
}

// TestKilledPeerFailsLoud: analyses against a remote-backed dataset whose
// peer dies mid-run fail with typed or transport errors immediately — no
// request waits out the hang detector.
func TestKilledPeerFailsLoud(t *testing.T) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	peer := server.New(server.Config{Shards: 2, Logger: discard})
	peerTS := httptest.NewServer(peer.Handler())
	t.Cleanup(peer.Close)
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}

	coord := server.New(server.Config{Logger: discard})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	t.Cleanup(coord.Close)
	if err := coord.AddRemoteDataset(context.Background(), "berkeley", []string{peerTS.URL}, false); err != nil {
		t.Fatal(err)
	}

	// Rotating WHERE predicates force distinct restriction views, so the
	// run keeps generating real peer traffic instead of replaying one
	// cached cuboid.
	whereQ := func(where string) api.Query {
		return api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}, Where: where}
	}
	client := api.NewClient(coordTS.URL, coordTS.Client())
	r := New(Config{
		Client:  client,
		Dataset: "berkeley",
		Queries: []api.Query{
			defaultQuery,
			whereQ("Department IN ('A','B')"),
			whereQ("Department IN ('C','D')"),
			whereQ("Department IN ('E','F')"),
		},
		Workers:           3,
		Duration:          1200 * time.Millisecond,
		PerRequestTimeout: 45 * time.Second,
		Mix:               Mix{Analyze: 1},
	})
	done := make(chan *Result, 1)
	go func() { done <- r.Run(context.Background()) }()

	time.Sleep(300 * time.Millisecond)
	peerTS.Close() // the peer drops dead mid-run

	res := <-done
	if res.Counts.Hung > 0 {
		t.Fatalf("requests hung after peer kill: %+v (samples: %v)", res.Counts, res.ErrorSamples)
	}
	if res.Counts.OK == 0 {
		t.Fatal("no analyze succeeded before the peer died")
	}

	// A predicate the coordinator has never seen cannot be served from
	// any cache: it must reach the dead peer and fail loudly — a typed
	// error from the still-alive coordinator, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	_, err = client.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   whereQ("Department IN ('A','C','E')"),
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if err == nil {
		t.Fatal("fresh-predicate analyze succeeded against a dead peer")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("fresh-predicate analyze failed untyped: %v", err)
	}
}

// TestSlowLorisDoesNotStarve: a pack of connections dribbling bytes into
// unfinished requests must not keep real traffic from completing.
func TestSlowLorisDoesNotStarve(t *testing.T) {
	bed := newTestBed(t, server.Config{})
	u, err := url.Parse(bed.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := SlowLoris(ctx, u.Host, 16, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	r := New(Config{
		Client:            bed.c,
		Dataset:           "berkeley",
		Query:             defaultQuery,
		Workers:           4,
		Duration:          700 * time.Millisecond,
		PerRequestTimeout: 20 * time.Second,
		Mix:               Mix{Analyze: 4, Metrics: 1},
	})
	res := r.Run(context.Background())
	if v := res.Violations(15 * time.Second); len(v) != 0 {
		t.Fatalf("violations under slow-loris: %v (samples: %v)", v, res.ErrorSamples)
	}
	if res.Counts.OK == 0 {
		t.Fatal("no request completed while slow-loris connections were open")
	}
	if res.Counts.TypedErrors > 0 || res.Counts.Transport > 0 || res.Counts.Hung > 0 {
		t.Errorf("slow-loris bled into real traffic: %+v (samples: %v)", res.Counts, res.ErrorSamples)
	}
}
