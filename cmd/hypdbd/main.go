// Command hypdbd serves the HypDB pipeline over HTTP: BI tools and scripts
// upload CSV datasets and run detect/explain/resolve analyses through a
// JSON API instead of linking the library.
//
// Usage:
//
//	hypdbd [-addr :8080] [-request-timeout 2m] [-max-concurrent N]
//	       [-max-upload-mb 64] [-max-datasets 64] [-shards N]
//	       [-preload name[:rows],...] [-sql name=driver,dsn,table]...
//	       [-peer name=url1[@token],url2[@token],...]... [-peer-degraded]
//	       [-data-dir DIR] [-token name:scope:secret[:weight]]...
//	       [-open-metrics] [-rate N] [-burst N] [-max-queued N]
//	       [-enable-shutdown] [-seed 1] [-log text|json] [-grace 15s]
//
// Endpoints (see the api package for the wire types):
//
//	POST   /v1/datasets              upload a CSV — or register a SQL table
//	                                 via {driver, dsn, sql_table} — as a
//	                                 named dataset
//	GET    /v1/datasets              list datasets
//	GET    /v1/datasets/{name}/stats schema, size, cache counters
//	POST   /v1/datasets/{name}/append
//	                                 stream rows into a sharded dataset
//	                                 (new snapshot version; in-flight
//	                                 analyses keep theirs)
//	POST   /v1/datasets/{name}/counts
//	                                 dictionary-coded group-by counts — the
//	                                 remote-shard transport another hypdbd
//	                                 node's -peer datasets speak
//	DELETE /v1/datasets/{name}       drop a dataset
//	POST   /v1/analyze               analyze one query
//	POST   /v1/analyze/batch         analyze a batch (shared CD cache)
//	POST   /v1/audit                 sweep the dataset's query lattice for
//	                                 bias (ranked findings; progress in
//	                                 /v1/metrics)
//	GET    /v1/metrics               service-wide counters (JSON)
//	GET    /metrics                  the same counters in the Prometheus
//	                                 text exposition format
//	GET    /healthz                  liveness
//
// -shards N serves uploaded and preloaded in-memory datasets through the
// partition-parallel sharded backend with N horizontal partitions: group-by
// counts fan out across the shards, and the datasets accept streaming
// appends. -preload registers generated datasets at startup (names from
// `hypdb datasets`, e.g. "berkeley,flight:12000"). -sql registers a dataset served
// directly by a SQL database with count pushdown; the driver must be
// compiled into the binary (the in-process "memsql" test driver is; add
// blank imports for others). -peer registers a dataset whose shards are
// other hypdbd nodes: "name=url1,url2" opens one remote-shard child per
// base URL — each must already serve a dataset called name — and this node
// coordinates them under one global dictionary, so a cluster serves one
// logical catalog. When a peer runs with -token, append that peer's secret
// to its URL as "url@token": the credential rides every handshake, counts
// call, and health probe to that peer (a rejected credential fails fast as
// a peer_auth error — never retried, never degraded away).
// -peer-degraded lets those datasets keep answering (with
// reports marked stale) when a peer dies instead of failing reads.
//
// -data-dir DIR persists the dataset catalog: HTTP registrations (CSV
// bodies spilled to DIR/csv/), streaming appends, deletions, and
// flag-driven SQL/remote registrations journal to DIR/journal.jsonl and
// replay at the next startup — no client re-registration after a restart.
// -token name:scope:secret (repeatable; scope operator or reader, with an
// optional :weight suffix scaling the client's fair share) enables bearer
// auth: operator tokens may mutate datasets and trigger shutdown, reader
// tokens may analyze and read. Both metrics views are token-gated like any
// read (reader scope suffices); -open-metrics re-exposes GET /metrics and
// GET /v1/metrics tokenless for scrapers that cannot carry credentials. -rate/-burst shed each client's requests
// beyond the per-second rate (with burst headroom) as 429 + Retry-After;
// -max-queued bounds each dataset's fair-queue depth, shedding the excess
// with 503 + Retry-After. -enable-shutdown exposes POST /v1/shutdown
// (operator scope), which triggers the same graceful drain as a signal.
//
// On SIGINT/SIGTERM the server
// sheds queued work with 503 + Retry-After, stops accepting new requests,
// and waits up to -grace for in-flight analyses;
// when the grace period expires their contexts are cancelled, which aborts
// permutation loops and discovery searches promptly. A second signal
// forces immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hypdb/internal/datagen"
	"hypdb/internal/memsql" // in-process SQL driver for -sql/-preload-sql datasets
	"hypdb/internal/server"
)

// sqlSpecs collects repeatable -sql flags of the form
// "name=driver,dsn,table" (dsn may be empty).
type sqlSpecs []string

func (s *sqlSpecs) String() string     { return strings.Join(*s, " ") }
func (s *sqlSpecs) Set(v string) error { *s = append(*s, v); return nil }

// peerSpecs collects repeatable -peer flags of the form
// "name=url1[@token],url2[@token],...".
type peerSpecs []string

func (s *peerSpecs) String() string     { return strings.Join(*s, " ") }
func (s *peerSpecs) Set(v string) error { *s = append(*s, v); return nil }

// tokenSpecs collects repeatable -token flags of the form
// "name:scope:secret" with an optional ":weight" suffix.
type tokenSpecs []string

func (s *tokenSpecs) String() string     { return strings.Join(*s, " ") }
func (s *tokenSpecs) Set(v string) error { *s = append(*s, v); return nil }

// parseTokens turns -token specs into server tokens.
func parseTokens(specs tokenSpecs) ([]server.Token, error) {
	var out []server.Token
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf(`-token %q: want "name:scope:secret[:weight]"`, spec)
		}
		t := server.Token{Name: parts[0], Scope: parts[1], Secret: parts[2], Weight: 1}
		if t.Name == "" || t.Secret == "" {
			return nil, fmt.Errorf("-token %q: name and secret must be non-empty", spec)
		}
		if t.Scope != server.ScopeOperator && t.Scope != server.ScopeReader {
			return nil, fmt.Errorf("-token %q: scope must be %q or %q", spec, server.ScopeOperator, server.ScopeReader)
		}
		if len(parts) == 4 {
			w, err := strconv.ParseFloat(parts[3], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("-token %q: bad weight %q", spec, parts[3])
			}
			t.Weight = w
		}
		out = append(out, t)
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hypdbd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	reqTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request timeout for every route that reaches a backend (0 disables)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent analyses per dataset (0 = 2×GOMAXPROCS)")
	maxUploadMB := flag.Int64("max-upload-mb", 64, "max CSV upload size in MiB")
	maxDatasets := flag.Int("max-datasets", 64, "max registered datasets")
	shards := flag.Int("shards", 0, "serve in-memory datasets with this many horizontal partitions (enables streaming appends; 0 or 1 = unsharded)")
	preload := flag.String("preload", "", `generated datasets to register at startup, "name[:rows],..." (see hypdb datasets)`)
	preloadSQL := flag.String("preload-sql", "", `generated datasets to serve through the SQL backend (in-process memsql driver), "name[:rows],..."`)
	var sqlDatasets sqlSpecs
	flag.Var(&sqlDatasets, "sql", `SQL-backed dataset to register at startup, "name=driver,dsn,table" (repeatable; dsn may contain commas)`)
	allowSQL := flag.String("allow-sql-drivers", "", `comma-separated driver names clients may use to register SQL datasets over HTTP (empty disables the endpoint's SQL form)`)
	var peerDatasets peerSpecs
	flag.Var(&peerDatasets, "peer", `remote-sharded dataset to register at startup, "name=url1[@token],url2[@token],..." (repeatable; each URL is a hypdbd peer already serving the dataset, with an optional bearer token after '@')`)
	peerDegraded := flag.Bool("peer-degraded", false, "serve -peer datasets from surviving shards (reports marked stale) when a peer is down, instead of failing reads")
	dataDir := flag.String("data-dir", "", "directory for the persistent dataset catalog (empty = in-memory only; registrations do not survive restarts)")
	var tokens tokenSpecs
	flag.Var(&tokens, "token", `bearer credential "name:scope:secret[:weight]" (repeatable; scope operator or reader; enables auth on every endpoint but /healthz)`)
	openMetrics := flag.Bool("open-metrics", false, "serve GET /metrics and GET /v1/metrics without a token even when -token auth is enabled")
	rate := flag.Float64("rate", 0, "per-client request rate limit in requests/second (0 disables; over-rate requests get 429 + Retry-After)")
	burst := flag.Int("burst", 0, "per-client rate-limit burst headroom (minimum 1)")
	maxQueued := flag.Int("max-queued", 0, "max requests queued per dataset for execution slots (0 = 4×max-concurrent, negative = unbounded; excess gets 503 + Retry-After)")
	enableShutdown := flag.Bool("enable-shutdown", false, "expose POST /v1/shutdown (operator scope) triggering the graceful drain")
	seed := flag.Int64("seed", 1, "seed for preloaded generators")
	logFormat := flag.String("log", "text", "log format: text or json")
	grace := flag.Duration("grace", 15*time.Second, "graceful-shutdown drain window before in-flight analyses are cancelled")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log format %q (want text or json)", *logFormat)
	}
	log := slog.New(handler)

	var allowed []string
	for _, d := range strings.Split(*allowSQL, ",") {
		if d = strings.TrimSpace(d); d != "" {
			allowed = append(allowed, d)
		}
	}
	parsedTokens, err := parseTokens(tokens)
	if err != nil {
		return err
	}

	// -enable-shutdown routes POST /v1/shutdown into the same graceful
	// path as a signal; the channel is closed at most once.
	shutdownCh := make(chan struct{})
	var shutdownOnce sync.Once
	var onShutdown func()
	if *enableShutdown {
		onShutdown = func() { shutdownOnce.Do(func() { close(shutdownCh) }) }
	}

	srv := server.New(server.Config{
		Logger:                  log,
		RequestTimeout:          *reqTimeout,
		MaxConcurrentPerDataset: *maxConcurrent,
		MaxUploadBytes:          *maxUploadMB << 20,
		MaxDatasets:             *maxDatasets,
		Shards:                  *shards,
		AllowSQLDrivers:         allowed,
		Tokens:                  parsedTokens,
		OpenMetrics:             *openMetrics,
		RatePerClient:           *rate,
		RateBurst:               *burst,
		MaxQueuedPerDataset:     *maxQueued,
		OnShutdown:              onShutdown,
	})
	if *dataDir != "" {
		if err := srv.OpenCatalog(*dataDir); err != nil {
			return fmt.Errorf("-data-dir %q: %w", *dataDir, err)
		}
		log.Info("catalog journal open", "dir", *dataDir)
	}
	// Flag-driven registrations run before Recover: replayed journal
	// records for names the flags re-established are skipped, and journaled
	// appends then apply to the flag-registered datasets.
	if err := preloadDatasets(srv, *preload, *seed, log); err != nil {
		return err
	}
	if err := preloadSQLDatasets(srv, *preloadSQL, *seed, log); err != nil {
		return err
	}
	for _, spec := range sqlDatasets {
		if err := registerSQLDataset(srv, spec, log); err != nil {
			return err
		}
	}
	for _, spec := range peerDatasets {
		if err := registerPeerDataset(srv, spec, *peerDegraded, log); err != nil {
			return err
		}
	}
	if *dataDir != "" {
		if err := srv.Recover(context.Background()); err != nil {
			return fmt.Errorf("recovering catalog from %q: %w", *dataDir, err)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("hypdbd listening", "addr", *addr)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		// Startup failure (e.g. the port is taken): exit nonzero at once.
		return err
	case <-ctx.Done():
	case <-shutdownCh:
		log.Info("shutdown requested via /v1/shutdown")
	}
	stop() // a second signal now kills the process outright
	log.Info("shutting down", "grace", grace.String())
	// Phase one: shed queued admission waiters (503 + Retry-After) and
	// reject new work, while requests already holding execution slots run
	// to completion inside the grace window.
	srv.Drain()
	// When the drain window expires, cancel in-flight analysis contexts;
	// the permutation loops abort and the handlers still get a few seconds
	// to flush their 503 responses before the hard close.
	drain := time.AfterFunc(*grace, func() {
		log.Info("drain window expired; cancelling in-flight analyses")
		srv.Close()
	})
	defer drain.Stop()
	shCtx, cancel := context.WithTimeout(context.Background(), *grace+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Warn("forced shutdown", "error", err)
		_ = httpSrv.Close()
	}
	// Idempotent: releases dataset handles and closes the catalog journal
	// whether or not the drain timer already fired.
	srv.Close()
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("bye")
	return nil
}

// preloadSQLDatasets generates datasets, registers their tables with the
// in-process memsql driver, and serves them through the sqldb backend —
// the zero-DBMS way to exercise SQL count pushdown end to end.
func preloadSQLDatasets(srv *server.Server, spec string, seed int64, log *slog.Logger) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rowsStr, hasRows := strings.Cut(part, ":")
		gen, err := datagen.Lookup(name)
		if err != nil {
			return fmt.Errorf("-preload-sql %q: %w", part, err)
		}
		rows := gen.DefaultRows
		if hasRows {
			rows, err = strconv.Atoi(rowsStr)
			if err != nil || rows <= 0 {
				return fmt.Errorf("-preload-sql %q: bad row count %q", part, rowsStr)
			}
		}
		tab, err := gen.Generate(rows, seed)
		if err != nil {
			return fmt.Errorf("-preload-sql %q: %w", part, err)
		}
		table := name + "_sql"
		memsql.Register(table, tab)
		if err := srv.AddSQLDataset(context.Background(), name, memsql.DriverName, "", table); err != nil {
			return fmt.Errorf("-preload-sql %q: %w", part, err)
		}
		log.Info("preloaded SQL-backed dataset", "name", name, "rows", tab.NumRows(), "cols", tab.NumCols())
	}
	return nil
}

// registerSQLDataset parses one -sql spec and registers the dataset.
func registerSQLDataset(srv *server.Server, spec string, log *slog.Logger) error {
	name, rest, ok := strings.Cut(spec, "=")
	// The DSN may itself contain commas (e.g. Postgres multi-host
	// "host=h1,h2"): the driver is everything before the FIRST comma and
	// the table everything after the LAST one; the DSN is the middle.
	first := strings.Index(rest, ",")
	last := strings.LastIndex(rest, ",")
	if !ok || name == "" || first < 0 || last == first {
		return fmt.Errorf(`-sql %q: want "name=driver,dsn,table" (dsn may contain commas)`, spec)
	}
	driver, dsn, table := rest[:first], rest[first+1:last], rest[last+1:]
	if driver == "" || table == "" {
		return fmt.Errorf(`-sql %q: want "name=driver,dsn,table"`, spec)
	}
	if err := srv.AddSQLDataset(context.Background(), name, driver, dsn, table); err != nil {
		return fmt.Errorf("-sql %q: %w", spec, err)
	}
	log.Info("registered SQL dataset", "name", name, "driver", driver, "table", table)
	return nil
}

// registerPeerDataset parses one -peer spec and registers the dataset over
// its remote shards.
func registerPeerDataset(srv *server.Server, spec string, degraded bool, log *slog.Logger) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf(`-peer %q: want "name=url1,url2,..."`, spec)
	}
	var peers []string
	for _, u := range strings.Split(rest, ",") {
		if u = strings.TrimSpace(u); u != "" {
			peers = append(peers, u)
		}
	}
	if len(peers) == 0 {
		return fmt.Errorf(`-peer %q: want "name=url1,url2,..."`, spec)
	}
	if err := srv.AddRemoteDataset(context.Background(), name, peers, degraded); err != nil {
		return fmt.Errorf("-peer %q: %w", spec, err)
	}
	log.Info("registered remote-sharded dataset", "name", name, "peers", len(peers), "degraded", degraded)
	return nil
}

// preloadDatasets registers generated datasets given as "name[:rows],...".
func preloadDatasets(srv *server.Server, spec string, seed int64, log *slog.Logger) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rowsStr, hasRows := strings.Cut(part, ":")
		gen, err := datagen.Lookup(name)
		if err != nil {
			return fmt.Errorf("-preload %q: %w", part, err)
		}
		rows := gen.DefaultRows
		if hasRows {
			rows, err = strconv.Atoi(rowsStr)
			if err != nil || rows <= 0 {
				return fmt.Errorf("-preload %q: bad row count %q", part, rowsStr)
			}
		}
		tab, err := gen.Generate(rows, seed)
		if err != nil {
			return fmt.Errorf("-preload %q: %w", part, err)
		}
		if err := srv.AddDataset(name, tab); err != nil {
			return fmt.Errorf("-preload %q: %w", part, err)
		}
		log.Info("preloaded dataset", "name", name, "rows", tab.NumRows(), "cols", tab.NumCols())
	}
	return nil
}
