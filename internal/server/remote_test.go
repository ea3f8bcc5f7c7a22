package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hypdb/api"
	"hypdb/internal/datagen"
	"hypdb/source/remote"
)

// newPeerServer starts a hypdbd node with its handler mounted on an
// httptest server and returns both plus the base URL — the shape a remote
// shard peer has in production.
func newPeerServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts.URL
}

// postCounts performs one raw counts-endpoint round trip.
func postCounts(t *testing.T, baseURL, dataset string, req remote.CountsRequest) (*remote.CountsResponse, *api.Error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/datasets/"+dataset+"/counts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error *api.Error `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
			t.Fatalf("HTTP %d with undecodable error body (%v)", resp.StatusCode, err)
		}
		env.Error.Status = resp.StatusCode
		return nil, env.Error
	}
	var out remote.CountsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, nil
}

func TestCountsEndpoint(t *testing.T) {
	srv, url := newPeerServer(t, Config{Shards: 4})
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}

	// Handshake: schema, dictionaries, rows, version.
	hs, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{IncludeSchema: true})
	if apiErr != nil {
		t.Fatalf("handshake: %v", apiErr)
	}
	if hs.Schema == nil || len(hs.Schema.Attrs) != 3 || hs.Schema.Rows != datagen.BerkeleyRows() {
		t.Fatalf("handshake schema = %+v", hs.Schema)
	}
	if hs.Version != 1 || hs.Schema.Version != 1 {
		t.Fatalf("handshake version = %d/%d, want 1 (sharded snapshot)", hs.Version, hs.Schema.Version)
	}

	// Counts by one attribute sum to the table size, and the codes index
	// the handshake dictionary.
	cs, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, ExpectVersion: 1,
	})
	if apiErr != nil {
		t.Fatalf("counts: %v", apiErr)
	}
	total := 0
	card := len(hs.Schema.Labels[0])
	for i, g := range cs.Groups {
		if len(g) != 1 || int(g[0]) >= card {
			t.Fatalf("group %d = %v out of range for card %d", i, g, card)
		}
		total += cs.Counts[i]
	}
	if total != datagen.BerkeleyRows() {
		t.Errorf("counts sum to %d, want %d", total, datagen.BerkeleyRows())
	}

	// A WHERE predicate restricts the counted rows.
	where, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, Where: "Gender = 'Male'",
	})
	if apiErr != nil {
		t.Fatalf("where counts: %v", apiErr)
	}
	if len(where.Groups) != 1 {
		t.Fatalf("where counts groups = %v, want one (Male)", where.Groups)
	}

	// Restrict is a server-side view: the restricted handshake compacts
	// dictionaries like a local backend would.
	rs, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Restrict: "Gender = 'Female'", IncludeSchema: true,
	})
	if apiErr != nil {
		t.Fatalf("restricted handshake: %v", apiErr)
	}
	if len(rs.Schema.Labels[0]) != 1 || rs.Schema.Rows >= datagen.BerkeleyRows() {
		t.Fatalf("restricted schema = %+v, want single Gender label over fewer rows", rs.Schema)
	}

	// Version skew fails closed with the typed code.
	if _, apiErr = postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, ExpectVersion: 99,
	}); apiErr == nil || apiErr.Code != api.CodeVersionSkew || apiErr.Status != http.StatusConflict {
		t.Fatalf("version skew error = %v, want 409 %s", apiErr, api.CodeVersionSkew)
	}

	// Bad predicates are a client error, not a 500.
	if _, apiErr = postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, Where: "Gender ==",
	}); apiErr == nil || apiErr.Code != api.CodeBadPredicate {
		t.Fatalf("bad predicate error = %v, want %s", apiErr, api.CodeBadPredicate)
	}
	if _, apiErr = postCounts(t, url, "nope", remote.CountsRequest{IncludeSchema: true}); apiErr == nil || apiErr.Code != api.CodeDatasetNotFound {
		t.Fatalf("missing dataset error = %v, want %s", apiErr, api.CodeDatasetNotFound)
	}

	// Identical requests return identical bytes: groups go out in strictly
	// ascending cell order (first attribute fastest), not in the order a map
	// happens to iterate.
	rawCounts := func() []byte {
		resp, err := http.Post(url+"/v1/datasets/berkeley/counts", "application/json",
			bytes.NewReader([]byte(`{"attrs":["Gender","Department","Accepted"],"expect_version":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("counts: HTTP %d, %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	first := rawCounts()
	var full remote.CountsResponse
	if err := json.Unmarshal(first, &full); err != nil || len(full.Groups) < 20 {
		t.Fatalf("full counts: %d groups (%v), want >= 20", len(full.Groups), err)
	}
	cardOf := make(map[string]int)
	for i, a := range hs.Schema.Attrs {
		cardOf[a] = len(hs.Schema.Labels[i])
	}
	prev := -1
	for i, g := range full.Groups {
		cell, stride := 0, 1
		for j, a := range []string{"Gender", "Department", "Accepted"} {
			cell += stride * int(g[j])
			stride *= cardOf[a]
		}
		if cell <= prev {
			t.Fatalf("group %d = %v (cell %d) after cell %d: not in ascending cell order", i, g, cell, prev)
		}
		prev = cell
	}
	for i := 0; i < 5; i++ {
		if again := rawCounts(); !bytes.Equal(first, again) {
			t.Fatalf("identical counts requests returned different bodies:\n%s\n%s", first, again)
		}
	}

	// The transport counters moved.
	m := metricsOf(t, url)
	if m.CountsServed < 2 {
		t.Errorf("service CountsServed = %d, want >= 2", m.CountsServed)
	}
}

func metricsOf(t *testing.T, url string) *api.Metrics {
	t.Helper()
	m, err := api.NewClient(url, nil).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRemoteDatasetOverLoopbackPeer(t *testing.T) {
	peer, peerURL := newPeerServer(t, Config{Shards: 2})
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}

	coord, coordURL := newPeerServer(t, Config{})
	if err := coord.AddRemoteDataset(context.Background(), "berkeley", []string{peerURL}, false); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	c := api.NewClient(coordURL, nil)
	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Backend != "remote" || list[0].Rows != datagen.BerkeleyRows() {
		t.Fatalf("coordinator dataset = %+v", list)
	}
	if len(list[0].Peers) != 1 || list[0].Peers[0] != peerURL {
		t.Fatalf("coordinator peers = %v, want [%s]", list[0].Peers, peerURL)
	}

	rep, err := c.Analyze(ctx, api.AnalyzeRequest{
		Dataset: "berkeley",
		Query:   api.Query{Treatment: "Gender", Outcomes: []string{"Accepted"}},
		Options: api.Options{Seed: 1, SkipDirect: true},
	})
	if err != nil {
		t.Fatalf("analyze over remote shard: %v", err)
	}
	if rep.Degraded {
		t.Error("healthy-peer analysis marked degraded")
	}

	// Both sides of the transport surface counters: the coordinator its
	// per-peer stats, the peer its served counts.
	cm := metricsOf(t, coordURL)
	if len(cm.PerDataset) != 1 || len(cm.PerDataset[0].Remote) != 1 {
		t.Fatalf("coordinator metrics = %+v, want one remote peer", cm.PerDataset)
	}
	pm := cm.PerDataset[0].Remote[0]
	if pm.URL != peerURL || !pm.Healthy || pm.Requests == 0 {
		t.Errorf("peer metrics = %+v", pm)
	}
	if m := metricsOf(t, peerURL); m.CountsServed == 0 {
		t.Error("peer served no counts despite a completed analysis")
	}

	// Duplicate registration fails cleanly.
	if err := coord.AddRemoteDataset(ctx, "berkeley", []string{peerURL}, false); err == nil {
		t.Error("duplicate remote registration succeeded")
	}
	// A dataset the peer does not serve fails the handshake.
	if err := coord.AddRemoteDataset(ctx, "nope", []string{peerURL}, false); err == nil {
		t.Error("remote registration for a missing dataset succeeded")
	}
}

// TestUnversionedDatasetPinnedByRegistrationEpoch is the regression test
// for the skew hole on unversioned backends: a plain mem dataset used to
// hand out Version 0 in the handshake, so the client omitted expect_version
// (omitempty) and the server never ran the skew check — deleting and
// re-registering the dataset between calls was served silently from the new
// data. Every registration now issues a nonzero epoch as the pinned
// version.
func TestUnversionedDatasetPinnedByRegistrationEpoch(t *testing.T) {
	srv, url := newPeerServer(t, Config{}) // no shards: mem backend, no snapshot versions
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}

	hs, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{IncludeSchema: true})
	if apiErr != nil {
		t.Fatalf("handshake: %v", apiErr)
	}
	if hs.Version == 0 || hs.Schema.Version != hs.Version {
		t.Fatalf("handshake version = %d/%d, want a matching nonzero registration epoch",
			hs.Version, hs.Schema.Version)
	}

	// The pinned epoch round-trips; a wrong pin trips the skew check even
	// though the backend has no versions of its own.
	if _, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, ExpectVersion: hs.Version,
	}); apiErr != nil {
		t.Fatalf("counts at pinned epoch: %v", apiErr)
	}
	if _, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, ExpectVersion: hs.Version + 1,
	}); apiErr == nil || apiErr.Code != api.CodeVersionSkew {
		t.Fatalf("wrong pin error = %v, want %s", apiErr, api.CodeVersionSkew)
	}

	// Delete and re-register the name: the replacement gets a fresh epoch,
	// so a coordinator still pinned to the old registration fails closed
	// instead of silently mixing epochs.
	if err := api.NewClient(url, nil).DeleteDataset(context.Background(), "berkeley"); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("berkeley", tab); err != nil {
		t.Fatal(err)
	}
	hs2, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{IncludeSchema: true})
	if apiErr != nil {
		t.Fatalf("re-registration handshake: %v", apiErr)
	}
	if hs2.Version == hs.Version {
		t.Fatalf("re-registered dataset reuses epoch %d", hs.Version)
	}
	if _, apiErr := postCounts(t, url, "berkeley", remote.CountsRequest{
		Attrs: []string{"Gender"}, ExpectVersion: hs.Version,
	}); apiErr == nil || apiErr.Code != api.CodeVersionSkew || apiErr.Status != http.StatusConflict {
		t.Fatalf("stale pin after re-registration = %v, want 409 %s", apiErr, api.CodeVersionSkew)
	}
}

// TestConcurrentAppendsKeepRowsGaugeFresh is the regression test for the
// rows-gauge race: handleAppend used to Store(res.NumRows), so two appends
// completing out of order could leave the gauge stale-low until the next
// append. The monotonic update keeps it exact. Run with -race.
func TestConcurrentAppendsKeepRowsGaugeFresh(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 2})
	ctx := context.Background()
	if _, err := c.CreateShardedDataset(ctx, "berkeley", berkeleyCSV(t), 2); err != nil {
		t.Fatal(err)
	}
	base := datagen.BerkeleyRows()

	const appenders = 8
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Append(ctx, "berkeley", [][]string{{"Female", "A", "1"}}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := base + appenders; list[0].Rows != want {
		t.Errorf("rows gauge = %d after %d concurrent appends, want %d", list[0].Rows, appenders, want)
	}
	if list[0].Version != appenders+1 {
		t.Errorf("version = %d, want %d", list[0].Version, appenders+1)
	}
	st, err := c.Stats(ctx, "berkeley")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != base+appenders {
		t.Errorf("stats rows = %d, want %d", st.Rows, base+appenders)
	}
}
