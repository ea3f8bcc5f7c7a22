package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
	"hypdb/source/remote"
)

// fastOpts keeps retry/backoff budgets tiny so fault-injection tests run in
// milliseconds. The health loop is disabled so every call goes to the
// network deterministically.
func fastOpts() remote.Options {
	return remote.Options{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     2,
		RetryBackoff:   time.Millisecond,
		HealthInterval: -1,
	}
}

// schemaResponse is the canned handshake payload every fake peer serves:
// two attributes with two labels each over four rows at version 7.
func schemaResponse() remote.CountsResponse {
	return remote.CountsResponse{
		Version: 7,
		Schema: &remote.Schema{
			Attrs:   []string{"a", "b"},
			Labels:  [][]string{{"x", "y"}, {"u", "v"}},
			Rows:    4,
			Version: 7,
			Backend: "fake",
		},
	}
}

// fakePeer serves the counts endpoint with injectable faults: the first
// failCounts non-handshake requests answer failWith, later ones succeed.
func fakePeer(t *testing.T, failCounts int, failWith func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
		var req remote.CountsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		if req.IncludeSchema {
			if err := json.NewEncoder(w).Encode(schemaResponse()); err != nil {
				t.Errorf("encoding handshake: %v", err)
			}
			return
		}
		if int(hits.Add(1)) <= failCounts {
			failWith(w)
			return
		}
		resp := remote.CountsResponse{
			Version: 7,
			Groups:  [][]int32{{0, 0}, {1, 1}},
			Counts:  []int{3, 1},
		}
		if len(req.Attrs) == 1 {
			resp.Groups = [][]int32{{0}, {1}}
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Errorf("encoding response: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &hits
}

func openFake(t *testing.T, srv *httptest.Server, opts remote.Options) *remote.Relation {
	t.Helper()
	rel, err := remote.Open(context.Background(), srv.URL, "D", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { rel.Close() })
	return rel
}

func TestHandshakeSnapshot(t *testing.T) {
	srv, _ := fakePeer(t, 0, nil)
	rel := openFake(t, srv, fastOpts())
	if got := rel.Name(); got != "D" {
		t.Errorf("Name = %q, want D", got)
	}
	if got := rel.Version(); got != 7 {
		t.Errorf("Version = %d, want 7", got)
	}
	if rows, err := rel.NumRows(context.Background()); err != nil || rows != 4 {
		t.Errorf("NumRows = %d, %v; want 4", rows, err)
	}
	labels, err := rel.Labels(context.Background(), "b")
	if err != nil || len(labels) != 2 || labels[0] != "u" {
		t.Errorf("Labels(b) = %v, %v; want [u v]", labels, err)
	}
	if _, err := rel.Labels(context.Background(), "nope"); !errors.Is(err, hyperr.ErrUnknownAttribute) {
		t.Errorf("Labels(nope) error = %v, want ErrUnknownAttribute", err)
	}
	// The backend identity must pin peer, dataset and version so cached
	// statistics never cross epochs.
	if got := rel.Backend(); got != "remote:"+srv.URL+"/D@v7" {
		t.Errorf("Backend = %q", got)
	}
	counts, err := rel.Counts(context.Background(), []string{"a", "b"}, nil)
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if len(counts) != 2 || counts[dataset.EncodeKey(0, 0)] != 3 || counts[dataset.EncodeKey(1, 1)] != 1 {
		t.Errorf("Counts = %v", counts)
	}
}

func TestRetries5xxThenSucceeds(t *testing.T) {
	srv, hits := fakePeer(t, 2, func(w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rel := openFake(t, srv, fastOpts())
	if _, err := rel.Counts(context.Background(), []string{"a", "b"}, nil); err != nil {
		t.Fatalf("Counts after 2×500: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("peer saw %d counts attempts, want 3", got)
	}
	st := rel.Stats()
	if st.Retries != 2 {
		t.Errorf("Stats.Retries = %d, want 2", st.Retries)
	}
	if st.Errors != 0 {
		t.Errorf("Stats.Errors = %d, want 0", st.Errors)
	}
}

func TestRetriesExhaustedIsPeerUnavailable(t *testing.T) {
	srv, hits := fakePeer(t, 1<<30, func(w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rel := openFake(t, srv, fastOpts())
	_, err := rel.Counts(context.Background(), []string{"a"}, nil)
	if !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	if got := hits.Load(); got != 3 { // 1 attempt + MaxRetries(2)
		t.Errorf("peer saw %d attempts, want 3", got)
	}
	st := rel.Stats()
	if st.Errors != 1 || st.Retries != 2 {
		t.Errorf("Stats = %+v, want Errors 1 Retries 2", st)
	}
}

func TestGarbageResponseRetriesThenFails(t *testing.T) {
	srv, hits := fakePeer(t, 1<<30, func(w http.ResponseWriter) {
		w.Write([]byte("<html>not json</html>")) //nolint:errcheck
	})
	rel := openFake(t, srv, fastOpts())
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("peer saw %d attempts, want 3 (garbage bodies are retried)", got)
	}
}

func TestSlowPeerDeadline(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
		var req remote.CountsRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		if req.IncludeSchema {
			json.NewEncoder(w).Encode(schemaResponse()) //nolint:errcheck
			return
		}
		hits.Add(1)
		select { // stall past the per-attempt deadline
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	opts := fastOpts()
	opts.RequestTimeout = 30 * time.Millisecond
	rel := openFake(t, srv, opts)
	start := time.Now()
	_, err := rel.Counts(context.Background(), []string{"a"}, nil)
	if !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bounded call took %s — per-attempt timeouts are not being applied", elapsed)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("peer saw %d attempts, want 3 (timeouts are retried)", got)
	}
}

func TestCallerCancellationIsNotPeerFault(t *testing.T) {
	srv, _ := fakePeer(t, 1<<30, func(w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rel := openFake(t, srv, fastOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rel.Counts(ctx, []string{"a"}, nil)
	if errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("cancellation classified as peer fault: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestVersionSkewFailsClosedWithoutRetry(t *testing.T) {
	srv, hits := fakePeer(t, 1<<30, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":{"code":"version_skew","message":"dataset moved to v8"}}`)) //nolint:errcheck
	})
	rel := openFake(t, srv, fastOpts())
	_, err := rel.Counts(context.Background(), []string{"a"}, nil)
	if !errors.Is(err, hyperr.ErrVersionSkew) {
		t.Fatalf("error = %v, want ErrVersionSkew", err)
	}
	if errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("version skew must not double as peer-unavailable (it would be degraded away): %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("peer saw %d attempts, want 1 (skew is never retried)", got)
	}
}

func TestDeadPeerConnectionRefused(t *testing.T) {
	srv, _ := fakePeer(t, 0, nil)
	rel := openFake(t, srv, fastOpts())
	srv.Close()
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
}

func TestUnhealthyPeerFailsFast(t *testing.T) {
	srv, hits := fakePeer(t, 1<<30, func(w http.ResponseWriter) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	opts := fastOpts()
	opts.HealthInterval = time.Hour // loop running, no probe during the test
	rel := openFake(t, srv, opts)
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	before := hits.Load()
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	if got := hits.Load(); got != before {
		t.Errorf("unhealthy peer still saw %d new attempts — calls must fail fast", got-before)
	}
	if st := rel.Stats(); st.Healthy {
		t.Error("Stats.Healthy = true after exhausted retries")
	}
}

func TestBadCodesRejected(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
		var req remote.CountsRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		if req.IncludeSchema {
			json.NewEncoder(w).Encode(schemaResponse()) //nolint:errcheck
			return
		}
		// Code 9 is out of range for a two-label dictionary.
		json.NewEncoder(w).Encode(remote.CountsResponse{ //nolint:errcheck
			Version: 7, Groups: [][]int32{{9}}, Counts: []int{1},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	rel := openFake(t, srv, fastOpts())
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); err == nil {
		t.Fatal("out-of-range code accepted")
	}
}

// TestPeerResponseValidation: a handshake naming an attribute or a label
// twice or claiming a negative row count, and a counts answer with a
// negative count, all fail as ErrPeerUnavailable instead of reaching the
// entropies.
func TestPeerResponseValidation(t *testing.T) {
	serve := func(handshake, counts remote.CountsResponse) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
			var req remote.CountsRequest
			json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
			if req.IncludeSchema {
				json.NewEncoder(w).Encode(handshake) //nolint:errcheck
				return
			}
			json.NewEncoder(w).Encode(counts) //nolint:errcheck
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}

	badHandshakes := map[string]func(s *remote.Schema){
		"duplicate attribute": func(s *remote.Schema) { s.Attrs = []string{"a", "a"} },
		"duplicate label":     func(s *remote.Schema) { s.Labels[1] = []string{"u", "u"} },
		"negative rows":       func(s *remote.Schema) { s.Rows = -1 },
	}
	for name, spoil := range badHandshakes {
		hs := schemaResponse()
		spoil(hs.Schema)
		srv := serve(hs, remote.CountsResponse{})
		if _, err := remote.Open(context.Background(), srv.URL, "D", fastOpts()); !errors.Is(err, hyperr.ErrPeerUnavailable) {
			t.Errorf("%s handshake: err = %v, want ErrPeerUnavailable", name, err)
		}
	}

	srv := serve(schemaResponse(), remote.CountsResponse{
		Version: 7, Groups: [][]int32{{0}, {1}}, Counts: []int{5, -1},
	})
	rel := openFake(t, srv, fastOpts())
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Errorf("negative count: err = %v, want ErrPeerUnavailable", err)
	}
}

func TestRestrictHandshake(t *testing.T) {
	var restrictSeen atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
		var req remote.CountsRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		if req.Restrict != "" {
			restrictSeen.Store(req.Restrict)
		}
		if req.IncludeSchema {
			resp := schemaResponse()
			if req.Restrict != "" { // restricted view: one label of a survives
				resp.Schema.Labels = [][]string{{"x"}, {"u", "v"}}
				resp.Schema.Rows = 2
			}
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(remote.CountsResponse{ //nolint:errcheck
			Version: 7, Groups: [][]int32{{0}}, Counts: []int{2},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	rel := openFake(t, srv, fastOpts())

	pred, err := dataset.ParsePredicate("a = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rel.Restrict(context.Background(), pred)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if got := restrictSeen.Load(); got != pred.SQL() {
		t.Errorf("peer saw restrict %q, want %q", got, pred.SQL())
	}
	if rows, err := sub.NumRows(context.Background()); err != nil || rows != 2 {
		t.Errorf("restricted NumRows = %d, %v; want 2", rows, err)
	}
	labels, err := sub.Labels(context.Background(), "a")
	if err != nil || len(labels) != 1 || labels[0] != "x" {
		t.Errorf("restricted Labels(a) = %v, %v; want [x] (server-side compaction)", labels, err)
	}
	if sub.Backend() == rel.Backend() {
		t.Error("restricted view shares the root's backend identity")
	}
	var _ = sub.(source.Relation)
}

func TestHealthLoopRecoversPeer(t *testing.T) {
	var down atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/counts", func(w http.ResponseWriter, r *http.Request) {
		var req remote.CountsRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		if down.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if req.IncludeSchema {
			json.NewEncoder(w).Encode(schemaResponse()) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(remote.CountsResponse{ //nolint:errcheck
			Version: 7, Groups: [][]int32{{0}}, Counts: []int{4},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	opts := fastOpts()
	opts.HealthInterval = 5 * time.Millisecond
	rel := openFake(t, srv, opts)

	down.Store(true)
	if _, err := rel.Counts(context.Background(), []string{"a"}, nil); !errors.Is(err, hyperr.ErrPeerUnavailable) {
		t.Fatalf("error = %v, want ErrPeerUnavailable", err)
	}
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := rel.Counts(context.Background(), []string{"a"}, nil); err == nil {
			return // the health loop marked the peer healthy again
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("peer never recovered after the health probe target came back")
}
