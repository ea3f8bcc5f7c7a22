package hypdb_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hypdb"
	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/server"
	"hypdb/source"
	"hypdb/source/remote"
)

// splitContiguous cuts a table into n contiguous row-range sub-tables, the
// same partitioning the sharded backend applies locally. SelectRows
// compacts each child's dictionaries first-seen in row order, so peers
// admitted back in shard order reproduce the parent's coding exactly.
func splitContiguous(tb testing.TB, tab *hypdb.Table, n int) []*hypdb.Table {
	tb.Helper()
	rows := tab.NumRows()
	parts := make([]*hypdb.Table, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*rows/n, (i+1)*rows/n
		idx := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			idx = append(idx, r)
		}
		sub, err := tab.SelectRows(idx)
		if err != nil {
			tb.Fatal(err)
		}
		parts = append(parts, sub)
	}
	return parts
}

// startPeerCluster boots one hypdbd node per sub-table, each serving its
// slice under the same dataset name, and returns the peer base URLs plus
// the httptest servers (so tests can kill individual peers).
func startPeerCluster(tb testing.TB, name string, parts []*hypdb.Table) ([]string, []*httptest.Server) {
	tb.Helper()
	urls := make([]string, 0, len(parts))
	nodes := make([]*httptest.Server, 0, len(parts))
	for _, part := range parts {
		srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err := srv.AddDataset(name, part); err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		tb.Cleanup(ts.Close)
		tb.Cleanup(srv.Close)
		urls = append(urls, ts.URL)
		nodes = append(nodes, ts)
	}
	return urls, nodes
}

// fastRemote keeps retry budgets tiny so peer-death tests fail (or degrade)
// in milliseconds instead of the production backoff schedule.
func fastRemote() remote.Options {
	return remote.Options{
		RequestTimeout: 5 * time.Second,
		MaxRetries:     1,
		RetryBackoff:   time.Millisecond,
		HealthInterval: -1, // no background probes; tests control liveness
	}
}

// openRemoteCluster splits the table across n loopback peers and opens a
// coordinator session over them.
func openRemoteCluster(tb testing.TB, name string, tab *hypdb.Table, n int, extra ...hypdb.OpenOption) (*hypdb.DB, []*httptest.Server) {
	tb.Helper()
	urls, nodes := startPeerCluster(tb, name, splitContiguous(tb, tab, n))
	opts := append([]hypdb.OpenOption{
		hypdb.WithRemoteShards(urls...),
		hypdb.WithRemoteOptions(fastRemote()),
	}, extra...)
	db, err := hypdb.OpenRemote(context.Background(), name, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db, nodes
}

// TestRemoteClusterReproBerkeley runs the Fig 4 (top) reproduction with the
// Berkeley table scattered over a 4-peer loopback cluster and requires the
// result to be byte-identical to the single-process golden file.
func TestRemoteClusterReproBerkeley(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := openRemoteCluster(t, "BerkeleyData", tab, 4)
	s := analyzeSummaryOn(t, "BerkeleyData", db, tab.NumRows(), datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	checkGolden(t, "berkeley.golden.json", s)
}

// TestRemoteClusterReproStaples is the Fig 3 (bottom) reproduction over a
// 4-peer cluster, against the same golden as the local backends.
func TestRemoteClusterReproStaples(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row cluster repro in -short mode")
	}
	tab, err := datagen.Staples(50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := openRemoteCluster(t, "StaplesData", tab, 4)
	s := analyzeSummaryOn(t, "StaplesData", db, tab.NumRows(), datagen.StaplesQuery(), hypdb.WithSeed(1))
	checkGolden(t, "staples.golden.json", s)
}

// TestRemoteClusterReproFlight is the Fig 1 reproduction over a 4-peer
// cluster, against the same golden as the local backends.
func TestRemoteClusterReproFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("12k-row cluster repro in -short mode")
	}
	tab, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := openRemoteCluster(t, "FlightData", tab, 4)
	s := analyzeSummaryOn(t, "FlightData", db, tab.NumRows(), datagen.FlightQuery(),
		hypdb.WithSeed(1), hypdb.WithPermutations(200))
	checkGolden(t, "flight.golden.json", s)
}

// TestRemotePeerDeathFailsClosed kills one of four peers and requires the
// default (non-degraded) coordinator to return the typed peer error —
// never a hang, never a silently partial answer.
func TestRemotePeerDeathFailsClosed(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db, nodes := openRemoteCluster(t, "BerkeleyData", tab, 4)
	ctx := context.Background()

	// Kill a peer before any traffic: with a warm counts cache the query
	// would legitimately be answered from the pinned snapshot without the
	// network, so the failure must be provoked on a cold coordinator.
	nodes[2].Close()
	start := time.Now()
	_, err = db.Analyze(ctx, datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	if !errors.Is(err, hypdb.ErrPeerUnavailable) {
		t.Fatalf("analyze with a dead peer: err = %v, want ErrPeerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("fail-closed took %s, want a bounded error", elapsed)
	}
}

// TestRemotePeerDeathDegrades kills one of four peers under
// WithDegradedReads and requires a clean answer over the survivors with
// the staleness marker set — on the report field and in the rendered text.
func TestRemotePeerDeathDegrades(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A healthy degraded-reads cluster is not stale-marked. This needs its
	// own coordinator: a warm counts cache on the shared one would let the
	// post-kill analysis below bypass the network entirely.
	healthy, _ := openRemoteCluster(t, "BerkeleyData", tab, 4, hypdb.WithDegradedReads())
	rep, err := healthy.Analyze(ctx, datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	if err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	if rep.Degraded {
		t.Error("healthy-cluster report marked degraded")
	}

	db, nodes := openRemoteCluster(t, "BerkeleyData", tab, 4, hypdb.WithDegradedReads())
	nodes[1].Close()
	rep, err = db.Analyze(ctx, datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	if err != nil {
		t.Fatalf("degraded analyze: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report over a dead peer not marked degraded")
	}
	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "STALE") {
		t.Errorf("degraded text report carries no STALE marker:\n%s", text.String())
	}

	// Three of four Berkeley shards still see both genders and all six
	// departments, so the degraded answer remains directionally sound.
	if len(rep.Mediators) != 1 || rep.Mediators[0] != "Department" {
		t.Errorf("degraded mediators = %v, want [Department]", rep.Mediators)
	}
}

// TestDegradedPartialCountsDieWithTheOutage is the regression test for the
// poisoned-cache bug: a degraded fan-out used to park partial counts in the
// session count cache under the coordinator's pinned snapshot version —
// which never changed for a remote session — so every later analysis was
// answered from the partial view without growing the degraded-serve
// counter: unmarked stale reports during the outage, and partial counts
// served forever after the peer recovered. A degraded serve now advances
// the snapshot version, so the partial entries die with their epoch.
func TestDegradedPartialCountsDieWithTheOutage(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	// One peer is wrapped in a toggle answering 502 while down — an outage
	// with a later recovery, which a killed listener cannot model.
	var down atomic.Bool
	parts := splitContiguous(t, tab, 4)
	urls := make([]string, 0, len(parts))
	for i, part := range parts {
		srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err := srv.AddDataset("BerkeleyData", part); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if i == 1 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() {
					w.WriteHeader(http.StatusBadGateway)
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(srv.Close)
		urls = append(urls, ts.URL)
	}
	ctx := context.Background()
	db, err := hypdb.OpenRemote(ctx, "BerkeleyData",
		hypdb.WithRemoteShards(urls...), hypdb.WithRemoteOptions(fastRemote()), hypdb.WithDegradedReads())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// During the outage every analysis rests on partial counts and must be
	// stamped — including repeats of the query that primed the cache.
	down.Store(true)
	for i := 0; i < 2; i++ {
		rep, err := db.Analyze(ctx, datagen.BerkeleyQuery(), hypdb.WithSeed(1))
		if err != nil {
			t.Fatalf("degraded analyze %d: %v", i, err)
		}
		if !rep.Degraded {
			t.Fatalf("analysis %d during the outage not marked degraded", i)
		}
	}

	// After recovery the partial counts must not be served again: the next
	// analysis re-fetches complete counts from all four peers, comes back
	// unmarked, and reproduces the healthy single-process golden
	// byte-for-byte.
	down.Store(false)
	rep, err := db.Analyze(ctx, datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	if err != nil {
		t.Fatalf("post-recovery analyze: %v", err)
	}
	if rep.Degraded {
		t.Fatal("post-recovery analysis still marked degraded")
	}
	s := analyzeSummaryOn(t, "BerkeleyData", db, tab.NumRows(), datagen.BerkeleyQuery(), hypdb.WithSeed(1))
	checkGolden(t, "berkeley.golden.json", s)
}

// TestRemoteAuditDegrades runs the lattice audit over a cluster with a
// dead peer under degraded reads: the sweep completes and is stamped.
func TestRemoteAuditDegrades(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db, nodes := openRemoteCluster(t, "BerkeleyData", tab, 4, hypdb.WithDegradedReads())
	nodes[3].Close()
	rep, err := db.Audit(context.Background(), hypdb.AuditSpec{}, hypdb.WithSeed(1))
	if err != nil {
		t.Fatalf("degraded audit: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("audit over a dead peer not marked degraded")
	}
	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "STALE") {
		t.Errorf("degraded audit text carries no STALE marker:\n%s", text.String())
	}
}

// rawRelation unwraps the coordinator's counts cache so benchmarks measure
// the transport, not cache hits.
func rawRelation(tb testing.TB, db *hypdb.DB) source.Relation {
	tb.Helper()
	rel := db.Relation()
	if cc, ok := rel.(*countcache.Relation); ok {
		rel = cc.Inner()
	}
	return rel
}

// BenchmarkRemoteCounts measures one group-by-counts round trip: the local
// in-memory baseline against loopback clusters of 1, 2 and 4 peers. The
// remote path pays JSON + HTTP per call; this pins how much.
func BenchmarkRemoteCounts(b *testing.B) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	attrs := []string{"Gender", "Department"}

	b.Run("local", func(b *testing.B) {
		db := hypdb.Open(tab)
		defer db.Close()
		rel := rawRelation(b, db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rel.Counts(ctx, attrs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, peers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			db, _ := openRemoteCluster(b, "BerkeleyData", tab, peers)
			rel := rawRelation(b, db)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rel.Counts(ctx, attrs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
