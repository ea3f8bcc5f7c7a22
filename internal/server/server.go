// Package server implements hypdbd: the HTTP analysis service exposing the
// HypDB pipeline (upload → append → analyze → batch → stats) over JSON.
//
// One Server owns a registry of named datasets, each wrapped in a
// long-lived *hypdb.DB session handle. Datasets opened on the sharded
// backend (Config.Shards or the request's shards field) additionally
// accept streaming appends: rows land in a new snapshot version, in-flight
// analyses keep the version they started on, and the session's count cache
// absorbs the delta without re-scanning. All analyze traffic for a dataset
// flows through that one handle, so concurrent and repeated requests share
// its single-flight covariate-discovery cache — the multi-query sharing of
// the paper's Sec 6, lifted to the service boundary. Batch requests fan
// into DB.AnalyzeAll's worker pool.
//
// Operational behavior: admission control in front of each dataset —
// requests pass an optional per-client token-bucket rate limiter (429
// rate_limited) and then a weighted fair queue over the dataset's
// execution slots, so one tenant's burst queues behind other tenants
// instead of starving them; overload sheds with typed 503 overloaded
// responses carrying Retry-After, and a request whose deadline cannot be
// met never occupies a queue slot. Optional bearer-token auth gates
// mutating endpoints behind operator scope. With OpenCatalog, dataset
// registrations and appends journal to a data directory and Recover
// replays them after a restart (CSV bodies reload from spill files, SQL
// DSNs re-open, remote peers re-handshake, snapshot versions re-pin).
// Graceful shutdown is two-phase: Drain sheds queued work with 503 +
// Retry-After while admitted requests finish; Close cancels a
// server-wide context that every in-flight request context is joined to,
// which aborts running permutation loops and discovery searches promptly.
package server

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypdb"
	"hypdb/api"
	"hypdb/internal/admission"
	"hypdb/internal/catalog"
	"hypdb/internal/countcache"
	"hypdb/source"
	"hypdb/source/remote"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Logger receives structured request and lifecycle logs; nil uses
	// slog.Default().
	Logger *slog.Logger
	// RequestTimeout bounds every request that reaches a backend — analyze,
	// batch, audit, append, counts, stats and dataset registration —
	// including its wait for execution slots; zero means no timeout.
	RequestTimeout time.Duration
	// MaxConcurrentPerDataset bounds concurrently executing analyses per
	// dataset; excess requests queue. Zero means 2×GOMAXPROCS.
	MaxConcurrentPerDataset int
	// MaxUploadBytes bounds the CSV upload body; zero means 64 MiB.
	MaxUploadBytes int64
	// MaxDatasets bounds the registry size; zero means 64.
	MaxDatasets int
	// Shards, when > 1, serves uploaded and preloaded in-memory datasets
	// through the sharded partition-parallel backend with that many
	// horizontal partitions, making them appendable. A request's shards
	// field overrides it per dataset. Zero or one keeps the plain mem
	// backend.
	Shards int
	// AllowSQLDrivers lists the database/sql driver names clients may use
	// to register SQL-backed datasets over HTTP (POST /v1/datasets with
	// driver/dsn/sql_table). Empty disables HTTP SQL registration — an
	// unauthenticated endpoint that opens operator-side network
	// connections must be opted into. Operator-initiated registration
	// (AddSQLDataset, the -sql flag) is not gated.
	AllowSQLDrivers []string
	// Tokens grants bearer credentials. Empty serves unauthenticated
	// ("open mode"): every client is treated as an operator identified by
	// its remote host. Non-empty requires Authorization: Bearer on every
	// endpoint except /healthz, with each token's scope gating what it may
	// do (see Token).
	Tokens []Token
	// RatePerClient admits at most this many requests per second per
	// client identity (token name, or remote host in open mode), with
	// RateBurst extra requests of burst headroom (minimum 1). Requests
	// over the rate are shed with 429 rate_limited and a Retry-After
	// hint. Zero disables rate limiting. /healthz and /v1/metrics are
	// exempt so probes and dashboards keep working during overload.
	RatePerClient float64
	// RateBurst is the per-client token-bucket burst size; see
	// RatePerClient.
	RateBurst int
	// MaxQueuedPerDataset bounds how many requests may wait in a
	// dataset's fair queue for an execution slot; requests beyond it are
	// shed with 503 overloaded. Zero means 4× the concurrency limit;
	// negative means unbounded.
	MaxQueuedPerDataset int
	// OpenMetrics exempts GET /metrics and GET /v1/metrics from bearer
	// auth. By default (false) the metrics endpoints require a token like
	// every other endpoint when Tokens is non-empty — reader scope
	// suffices — because the counters leak dataset names and traffic
	// shapes. Set it when an unauthenticated scraper must reach the
	// server directly. No effect in open mode.
	OpenMetrics bool
	// OnShutdown, when non-nil, enables POST /v1/shutdown (operator
	// scope): the handler acknowledges with 202 and then calls OnShutdown
	// on its own goroutine — typically wired to the binary's graceful
	// drain path. Nil keeps the endpoint disabled (403).
	OnShutdown func()
	// Clock overrides time.Now for tests; nil uses time.Now.
	Clock func() time.Time
}

// Scopes a Token may grant.
const (
	// ScopeOperator may mutate the catalog (dataset create/append/delete)
	// and trigger shutdown, plus everything a reader may do.
	ScopeOperator = "operator"
	// ScopeReader may analyze, audit, and read stats/metrics, but not
	// mutate. Any unrecognized scope is treated as reader.
	ScopeReader = "reader"
)

// Token is one bearer credential in Config.Tokens.
type Token struct {
	// Secret is the credential presented as "Authorization: Bearer <Secret>".
	Secret string
	// Name identifies the client in logs, rate limiting and fair
	// queueing; empty defaults to the scope name.
	Name string
	// Scope is ScopeOperator or ScopeReader.
	Scope string
	// Weight scales the client's share of a dataset's fair queue
	// (default 1; a weight-2 client is served twice as often under
	// contention).
	Weight float64
}

func (c Config) logger() *slog.Logger {
	if c.Logger == nil {
		return slog.Default()
	}
	return c.Logger
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrentPerDataset > 0 {
		return c.MaxConcurrentPerDataset
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c Config) maxUploadBytes() int64 {
	if c.MaxUploadBytes > 0 {
		return c.MaxUploadBytes
	}
	return 64 << 20
}

func (c Config) maxDatasets() int {
	if c.MaxDatasets > 0 {
		return c.MaxDatasets
	}
	return 64
}

// Server is the hypdbd service. Create with New, mount Handler on an
// http.Server, and call Close on shutdown to cancel in-flight analyses.
type Server struct {
	cfg     Config
	log     *slog.Logger
	now     func() time.Time
	started time.Time

	// closing is cancelled by Close; every request context joins it, so
	// shutdown propagates into in-flight permutation loops.
	closing        context.Context
	cancelAll      context.CancelFunc
	inFlight       atomic.Int64
	requests       atomic.Int64
	analyses       atomic.Int64
	audits         atomic.Int64
	auditsInFlight atomic.Int64
	appends        atomic.Int64
	rowsAppended   atomic.Int64
	countsServed   atomic.Int64

	// regSeq issues per-registration epochs (seeded from the start time, one
	// increment per register call): every dataset gets a nonzero epoch that
	// changes when a name is deleted and re-registered, so the counts
	// endpoint can pin unversioned backends too.
	regSeq atomic.Uint64

	// limiter is the per-client admission rate limiter (nil when
	// disabled); rateLimited counts the 429s it caused. tokens maps
	// bearer secrets to identities; empty means open mode. draining is
	// set by Drain: new work is rejected with 503 + Retry-After while
	// admitted requests finish.
	limiter     *admission.Limiter
	rateLimited atomic.Int64
	tokens      map[string]identity
	draining    atomic.Bool

	// journal persists catalog mutations when OpenCatalog was called;
	// catMu guards catalogNames, the set of dataset names with a live
	// create record (so flag-driven registrations journal only once
	// across restarts). recoveredDatasets / replayedAppends count what
	// Recover's boot-time replay rebuilt, for the catalog metrics.
	journal           *catalog.Journal
	catMu             sync.Mutex
	catalogNames      map[string]bool
	recoveredDatasets atomic.Int64
	replayedAppends   atomic.Int64

	mu       sync.RWMutex
	datasets map[string]*entry
}

// identity is an authenticated client: its admission-control name, its
// scope, and its fair-queue weight.
type identity struct {
	name   string
	scope  string
	weight float64
}

// ctxKey keys context values owned by this package.
type ctxKey int

const identityKey ctxKey = iota

// identityFrom returns the request identity stashed by instrument. The
// fallback (an anonymous operator) only triggers for handlers invoked
// outside the middleware stack, i.e. in tests.
func identityFrom(ctx context.Context) identity {
	if id, ok := ctx.Value(identityKey).(identity); ok {
		return id
	}
	return identity{name: "anon", scope: ScopeOperator, weight: 1}
}

// entry is one registered dataset: the shared session handle plus the
// per-dataset concurrency limiter and counters. rows/cols/backend are
// captured at registration so list/metrics endpoints never block on the
// storage backend; appends keep rows current.
type entry struct {
	name    string
	db      *hypdb.DB
	rows    atomic.Int64
	cols    int
	backend string
	// queue is the dataset's weighted fair admission queue: every
	// analyze/batch/audit/append/counts request acquires execution slots
	// through it, so one tenant's burst queues behind other tenants'
	// requests instead of starving them.
	queue   *admission.Queue
	created time.Time
	// epoch is the nonzero registration epoch: the pinned version the counts
	// endpoint hands to remote-shard coordinators when the backend has no
	// snapshot versions of its own. Re-registering a name issues a new
	// epoch, so a coordinator pinned to the deleted dataset trips the 409
	// version_skew path instead of silently reading the new data.
	epoch uint64
	// Streaming-ingestion counters: completed append requests and their
	// cumulative admitted rows.
	appends      atomic.Int64
	rowsAppended atomic.Int64
	// countsServed counts group-by counts requests answered on the
	// remote-shard transport (this node acting as someone's shard).
	countsServed atomic.Int64
	// appendMu serializes the apply+journal pair of an append so the
	// journal's record order matches the backend's version order — replay
	// then reproduces the same snapshot versions.
	appendMu sync.Mutex
	analyses atomic.Int64
	// Audit-sweep progress: completed sweeps, sweeps in flight, and
	// cumulative candidate counts — surfaced in /v1/metrics so pollers see
	// long sweeps advance.
	audits          atomic.Int64
	auditsRunning   atomic.Int64
	auditCandsDone  atomic.Int64
	auditCandsTotal atomic.Int64
}

// New creates a Server.
func New(cfg Config) *Server {
	closing, cancel := context.WithCancel(context.Background())
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:          cfg,
		log:          cfg.logger(),
		now:          now,
		started:      now(),
		closing:      closing,
		cancelAll:    cancel,
		datasets:     make(map[string]*entry),
		catalogNames: make(map[string]bool),
	}
	if cfg.RatePerClient > 0 {
		s.limiter = admission.NewLimiter(cfg.RatePerClient, cfg.RateBurst, now)
	}
	if len(cfg.Tokens) > 0 {
		s.tokens = make(map[string]identity, len(cfg.Tokens))
		for _, t := range cfg.Tokens {
			scope := ScopeReader
			if t.Scope == ScopeOperator {
				scope = ScopeOperator
			}
			name := t.Name
			if name == "" {
				name = scope
			}
			weight := t.Weight
			if weight <= 0 {
				weight = 1
			}
			s.tokens[t.Secret] = identity{name: name, scope: scope, weight: weight}
		}
	}
	// Seed the registration-epoch sequence from the start time so epochs
	// (very likely) differ across server restarts as well, not only across
	// re-registrations within one process.
	s.regSeq.Store(uint64(s.started.UnixNano()))
	return s
}

// Close begins shutdown: every subsequent request is rejected with 503
// shutting_down, the contexts of in-flight analyses are cancelled —
// aborting permutation loops and discovery searches promptly — and every
// dataset's session handle is released (SQL-backed handles close their
// database connections). Safe to call more than once.
func (s *Server) Close() {
	s.cancelAll()
	for _, e := range s.entries() {
		e.queue.Close()
		if err := e.db.Close(); err != nil {
			s.log.Error("closing dataset handle", "name", e.name, "error", err)
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.log.Error("closing catalog journal", "error", err)
		}
	}
}

// Drain begins load shedding for shutdown: every request queued in a
// dataset's fair queue is rejected with 503 + Retry-After, new analysis
// work is rejected the same way, and requests already holding execution
// slots run to completion. /healthz and /v1/metrics keep answering so
// probes and dashboards can watch the drain. Call Close once the HTTP
// server has finished draining connections. Safe to call more than once.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	for _, e := range s.entries() {
		e.queue.Close()
	}
	s.log.Info("draining: queued requests shed, admitted requests finishing")
}

// OpenCatalog attaches a persistent dataset catalog rooted at dir: from
// now on, HTTP dataset creations (CSV bodies spilled to dir/csv/),
// streaming appends, deletions, and flag-driven SQL/remote registrations
// are journaled, and Recover replays them after a restart. Call before
// serving and before Recover.
func (s *Server) OpenCatalog(dir string) error {
	j, err := catalog.Open(dir)
	if err != nil {
		return err
	}
	live, err := j.Replay()
	if err != nil {
		j.Close()
		return err
	}
	s.journal = j
	s.catMu.Lock()
	for _, rec := range live {
		if rec.Op == catalog.OpCreate {
			s.catalogNames[rec.Name] = true
		}
	}
	s.catMu.Unlock()
	return nil
}

// Recover replays the catalog journal: live creates re-register (CSV
// datasets reload their spilled bodies, SQL datasets re-open their DSNs,
// remote datasets re-handshake their peers) and appends re-apply in
// order, so sharded snapshot versions re-pin exactly where they were. A
// create whose name is already registered (an operator flag re-established
// it this boot) is skipped, as is one whose backing source cannot be
// re-opened — both are logged, and the journal record survives for the
// next restart. Call after flag-driven registrations, before serving.
// Ends with a journal compaction.
func (s *Server) Recover(ctx context.Context) error {
	if s.journal == nil {
		return nil
	}
	recs, err := s.journal.Replay()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		switch rec.Op {
		case catalog.OpCreate:
			if _, ok := s.DB(rec.Name); ok {
				s.log.Info("recover: dataset already registered this boot; journal create skipped",
					"name", rec.Name, "kind", rec.Kind)
				continue
			}
			if err := s.recoverCreate(ctx, rec); err != nil {
				s.log.Warn("recover: dataset not recovered (record kept for next restart)",
					"name", rec.Name, "kind", rec.Kind, "error", err)
			}
		case catalog.OpAppend:
			e, apiErr := s.lookup(rec.Name)
			if apiErr != nil {
				s.log.Warn("recover: append skipped, dataset missing", "name", rec.Name)
				continue
			}
			res, err := e.db.Append(ctx, rec.Rows)
			if err != nil {
				return fmt.Errorf("recover: replaying append to %q: %w", rec.Name, err)
			}
			e.rows.Store(int64(res.NumRows))
			s.replayedAppends.Add(1)
		}
	}
	if err := s.journal.Compact(); err != nil {
		// Compaction is an optimization; a failure costs disk, not data.
		s.log.Warn("recover: journal compaction failed", "error", err)
	}
	return nil
}

// recoverCreate re-registers one journaled dataset.
func (s *Server) recoverCreate(ctx context.Context, rec catalog.Record) error {
	var tab *hypdb.Table
	if rec.Kind == catalog.KindCSV {
		body, err := s.journal.ReadCSV(rec.CSVFile)
		if err != nil {
			return err
		}
		if tab, err = hypdb.ReadCSV(strings.NewReader(body)); err != nil {
			return err
		}
	}
	if _, err := s.open(ctx, rec, tab); err != nil {
		return operatorError(err)
	}
	s.recoveredDatasets.Add(1)
	s.log.Info("recovered dataset", "name", rec.Name, "kind", rec.Kind)
	return nil
}

// journalCreate persists a dataset registration; no-op without a catalog.
// The bool in catalogNames keeps flag-driven registrations from appending
// a duplicate create every boot.
func (s *Server) journalCreate(rec catalog.Record) error {
	if s.journal == nil {
		return nil
	}
	s.catMu.Lock()
	defer s.catMu.Unlock()
	if s.catalogNames[rec.Name] {
		return nil
	}
	if err := s.journal.Append(rec); err != nil {
		return err
	}
	s.catalogNames[rec.Name] = true
	return nil
}

// journalDelete persists a dataset deletion; no-op without a catalog.
func (s *Server) journalDelete(name string) error {
	if s.journal == nil {
		return nil
	}
	s.catMu.Lock()
	defer s.catMu.Unlock()
	if err := s.journal.Append(catalog.Record{Op: catalog.OpDelete, Name: name}); err != nil {
		return err
	}
	delete(s.catalogNames, name)
	return nil
}

// AddDataset registers an in-memory table under name — used by the binary
// to preload generated datasets and by tests. The table must not be
// mutated afterwards. Config.Shards > 1 serves it through the sharded
// backend, making it appendable. Preloaded datasets are not journaled:
// they are regenerated from the seed at every boot.
func (s *Server) AddDataset(name string, t *hypdb.Table) error {
	_, err := s.open(context.TODO(), catalog.Record{Name: name, Kind: catalog.KindCSV}, t)
	return operatorError(err)
}

// AddSQLDataset registers a dataset served by the SQL backend: driver and
// dsn are opened with database/sql and table's group-by counts are pushed
// down to the database. The session handle owns the connection; deleting
// the dataset (or shutting the server down) closes it.
func (s *Server) AddSQLDataset(ctx context.Context, name, driver, dsn, table string) error {
	rec := catalog.Record{
		Op: catalog.OpCreate, Name: name, Kind: catalog.KindSQL,
		Driver: driver, DSN: dsn, SQLTable: table,
	}
	if _, err := s.open(ctx, rec, nil); err != nil {
		return operatorError(err)
	}
	return s.journalCreate(rec)
}

// AddRemoteDataset registers a dataset served by remote hypdbd peers: one
// remote-shard child is opened per peer spec — "url" or "url@token", the
// token a per-peer bearer credential attached to the handshake, counts
// calls and health probes, journaled with the spec like SQL DSNs are —
// each pinned to that peer's current snapshot version by the
// counts-endpoint handshake, and the
// sharded coordinator merges them under one global dictionary, so this
// node serves the cluster's logical catalog. With degraded true, a peer
// that dies later is skipped and reports are marked stale; otherwise a
// lost peer fails reads with peer_unavailable. Registration is an operator
// action (the -peer flag) and is deliberately not exposed over HTTP — a
// request-crafted peer URL would let clients make this server dial
// arbitrary hosts, the same reasoning that keeps SQL DSN registration
// behind Config.AllowSQLDrivers.
func (s *Server) AddRemoteDataset(ctx context.Context, name string, peers []string, degraded bool) error {
	rec := catalog.Record{
		Op: catalog.OpCreate, Name: name, Kind: catalog.KindRemote,
		Peers: peers, Degraded: degraded,
	}
	if _, err := s.open(ctx, rec, nil); err != nil {
		return operatorError(err)
	}
	return s.journalCreate(rec)
}

// operatorError returns a registration failure to an operator-side caller:
// a classified *api.Error becomes its plain message, anything else (a
// backend error wrapping a sentinel) passes through unchanged.
func operatorError(err error) error {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return errors.New(apiErr.Message)
	}
	return err
}

// open is the single registration path: it opens the source rec describes
// — tab on the mem or sharded backend for a CSV record (rec.Shards
// overrides the server default when positive), the DSN for an SQL record,
// the peers for a remote record — probes its size and registers it as
// rec.Name, closing the handle if a step after the open fails. Classified
// failures are *api.Error; backend failures pass through as they are.
func (s *Server) open(ctx context.Context, rec catalog.Record, tab *hypdb.Table) (*entry, error) {
	var db *hypdb.DB
	var backend string
	switch rec.Kind {
	case catalog.KindCSV:
		shards := rec.Shards
		if shards <= 0 {
			shards = s.cfg.Shards
		}
		if shards > 1 {
			db, backend = hypdb.Open(tab, hypdb.WithShards(shards)), "sharded"
		} else {
			db, backend = hypdb.Open(tab), "mem"
		}
	case catalog.KindSQL:
		var apiErr *api.Error
		if db, apiErr = openSQL(ctx, rec.Driver, rec.DSN, rec.SQLTable); apiErr != nil {
			return nil, apiErr
		}
		backend = "sqldb"
	case catalog.KindRemote:
		opts := []hypdb.OpenOption{hypdb.WithRemoteShards(rec.Peers...)}
		if rec.Degraded {
			opts = append(opts, hypdb.WithDegradedReads())
		}
		var err error
		if db, err = hypdb.OpenRemote(ctx, rec.Name, opts...); err != nil {
			return nil, err
		}
		backend = "remote"
	default:
		return nil, fmt.Errorf("unknown catalog kind %q", rec.Kind)
	}
	rows, cols, err := sizeOf(ctx, db)
	var e *entry
	if err == nil {
		e, err = s.register(rec.Name, db, rows, cols, backend)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

// openSQL opens a DSN-backed session handle, classifying failures.
func openSQL(ctx context.Context, driver, dsn, table string) (*hypdb.DB, *api.Error) {
	if driver == "" || table == "" {
		return nil, badRequest("SQL datasets need driver and sql_table")
	}
	conn, err := sql.Open(driver, dsn)
	if err != nil {
		return nil, badRequest(fmt.Sprintf("opening driver %q: %v", driver, err))
	}
	db, err := hypdb.OpenSQL(ctx, conn, table)
	if err != nil {
		conn.Close()
		return nil, badRequest(fmt.Sprintf("probing table %q: %v", table, err))
	}
	return db, nil
}

// sizeOf probes a handle's row and column counts.
func sizeOf(ctx context.Context, db *hypdb.DB) (rows, cols int, err error) {
	rows, err = db.NumRows(ctx)
	if err != nil {
		return 0, 0, err
	}
	return rows, len(db.Relation().Attributes()), nil
}

// register adds an opened handle to the registry: name validation,
// duplicate rejection, the registry cap, and entry construction live only
// here. On a registration error (an *api.Error) the caller keeps ownership
// of db (and must close it).
func (s *Server) register(name string, db *hypdb.DB, rows, cols int, backend string) (*entry, error) {
	if err := validateDatasetName(name); err != nil {
		return nil, badRequest(err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return nil, &api.Error{
			Status: http.StatusConflict, Code: api.CodeDatasetExists,
			Message: fmt.Sprintf("dataset %q already exists (delete it first)", name),
		}
	}
	if len(s.datasets) >= s.cfg.maxDatasets() {
		return nil, &api.Error{
			Status: http.StatusInsufficientStorage, Code: api.CodeTooManyDatasets,
			Message: fmt.Sprintf("dataset limit (%d) reached", s.cfg.maxDatasets()),
		}
	}
	e := &entry{
		name:    name,
		db:      db,
		cols:    cols,
		backend: backend,
		queue: admission.NewQueue(admission.QueueConfig{
			Capacity:  s.cfg.maxConcurrent(),
			MaxQueued: s.cfg.MaxQueuedPerDataset,
			Clock:     s.now,
		}),
		created: s.now(),
		epoch:   s.nextEpoch(),
	}
	e.rows.Store(int64(rows))
	s.datasets[name] = e
	return e, nil
}

// nextEpoch issues the next registration epoch. Never zero: a zero version
// on the wire means "nothing pinned" (expect_version is omitted) and would
// disable the skew check for the dataset.
func (s *Server) nextEpoch() uint64 {
	for {
		if ep := s.regSeq.Add(1); ep != 0 {
			return ep
		}
	}
}

// DB returns the session handle of a registered dataset (tests use this to
// reach Stats directly). The bool reports existence.
func (s *Server) DB(name string) (*hypdb.DB, bool) {
	e, apiErr := s.lookup(name)
	if apiErr != nil {
		return nil, false
	}
	return e.db, true
}

// entries snapshots the registered datasets.
func (s *Server) entries() []*entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*entry, 0, len(s.datasets))
	for _, e := range s.datasets {
		out = append(out, e)
	}
	return out
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	operator := make(map[string]bool)
	op := func(pattern string) string { operator[pattern] = true; return pattern }
	mux.HandleFunc(op("POST /v1/datasets"), route(s, s.handleCreateDataset))
	mux.HandleFunc("GET /v1/datasets", route(s, s.handleListDatasets))
	mux.HandleFunc("GET /v1/datasets/{name}/stats", route(s, s.handleStats))
	mux.HandleFunc(op("POST /v1/datasets/{name}/append"), route(s, s.handleAppend))
	mux.HandleFunc("POST /v1/datasets/{name}/counts", route(s, s.handleCounts))
	mux.HandleFunc(op("DELETE /v1/datasets/{name}"), route(s, s.handleDeleteDataset))
	mux.HandleFunc("POST /v1/analyze", route(s, s.handleAnalyze))
	mux.HandleFunc("POST /v1/analyze/batch", route(s, s.handleBatch))
	mux.HandleFunc("POST /v1/audit", route(s, s.handleAudit))
	mux.HandleFunc("GET /v1/metrics", route(s, s.handleMetrics))
	mux.HandleFunc("GET /metrics", route(s, s.handlePromMetrics))
	mux.HandleFunc(op("POST /v1/shutdown"), route(s, s.handleShutdown))
	mux.HandleFunc("GET /healthz", route(s, s.handleHealth))
	return s.instrument(mux, operator)
}

// authenticate resolves the request's identity. With no tokens configured
// the server runs open: every client is an operator named after its
// remote host (which still scopes rate limiting and fair queueing).
// /healthz is always open so liveness probes need no credentials; the
// metrics endpoints are open only under Config.OpenMetrics — by default
// they require a token (reader scope suffices) because counters leak
// dataset names and traffic shapes.
func (s *Server) authenticate(r *http.Request) (identity, *api.Error) {
	if r.URL.Path == "/healthz" {
		return identity{name: "health", scope: ScopeReader, weight: 1}, nil
	}
	if s.cfg.OpenMetrics && metricsPath(r) {
		return identity{name: "metrics", scope: ScopeReader, weight: 1}, nil
	}
	if len(s.tokens) == 0 {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		return identity{name: host, scope: ScopeOperator, weight: 1}, nil
	}
	secret, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return identity{}, &api.Error{
			Status: http.StatusUnauthorized, Code: api.CodeUnauthorized,
			Message: "missing bearer token (Authorization: Bearer <token>)",
		}
	}
	id, ok := s.tokens[secret]
	if !ok {
		return identity{}, &api.Error{
			Status: http.StatusUnauthorized, Code: api.CodeUnauthorized,
			Message: "unknown bearer token",
		}
	}
	return id, nil
}

// metricsPath reports whether a request reads one of the metrics views:
// the JSON counters or the Prometheus exposition.
func metricsPath(r *http.Request) bool {
	return r.Method == http.MethodGet && (r.URL.Path == "/v1/metrics" || r.URL.Path == "/metrics")
}

// observability reports whether a request may bypass rate limiting and
// drain shedding: health probes and metrics scrapes are most valuable
// exactly when the server is overloaded or draining.
func observability(r *http.Request) bool {
	return r.URL.Path == "/healthz" || metricsPath(r)
}

// instrument is the pipeline's first stage: it wraps the mux with request
// counting, logging and panic recovery, sheds work while the server shuts
// down or drains, authenticates, rate-limits, and gates the mux patterns in
// operator on operator scope.
func (s *Server) instrument(mux *http.ServeMux, operator map[string]bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					// The stdlib's sanctioned abort: let net/http handle it.
					panic(rec)
				}
				s.log.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(rec))
				if !sw.wrote {
					s.writeError(sw, r, &api.Error{
						Status:  http.StatusInternalServerError,
						Code:    api.CodeInternal,
						Message: "internal error",
					})
				}
			}
			s.log.Info("request",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "duration", s.now().Sub(start).String())
		}()
		if s.closing.Err() != nil {
			s.writeError(sw, r, &api.Error{
				Status: http.StatusServiceUnavailable, Code: api.CodeShuttingDown,
				Message: "server is shutting down", RetryAfterSeconds: 10,
			})
			return
		}
		if s.draining.Load() && !observability(r) {
			s.writeError(sw, r, &api.Error{
				Status: http.StatusServiceUnavailable, Code: api.CodeShuttingDown,
				Message: "server is draining; retry against a healthy replica", RetryAfterSeconds: 10,
			})
			return
		}
		id, apiErr := s.authenticate(r)
		if apiErr != nil {
			s.writeError(sw, r, apiErr)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), identityKey, id))
		if !observability(r) {
			if ok, retryAfter := s.limiter.Allow(id.name); !ok {
				s.rateLimited.Add(1)
				s.writeError(sw, r, &api.Error{
					Status: http.StatusTooManyRequests, Code: api.CodeRateLimited,
					Message:           fmt.Sprintf("client %q is over its request rate", id.name),
					RetryAfterSeconds: retryAfter.Seconds(),
				})
				return
			}
		}
		if _, pattern := mux.Handler(r); operator[pattern] && id.scope != ScopeOperator {
			s.writeError(sw, r, &api.Error{
				Status: http.StatusForbidden, Code: api.CodeForbidden,
				Message: fmt.Sprintf("%s %s requires an operator-scoped token", r.Method, r.URL.Path),
			})
			return
		}
		mux.ServeHTTP(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// ---------------------------------------------------------------------------
// Dataset lifecycle

func validateDatasetName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("dataset name must be 1-64 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("dataset name %q: only letters, digits, '-', '_' and '.' allowed", name)
		}
	}
	return nil
}

func (s *Server) handleCreateDataset(c *call, req *api.CreateDatasetRequest) (int, any, *api.Error) {
	// The record carries the backend decision actually taken (explicit 1 for
	// the mem backend, below) so replay is immune to a changed -shards
	// default.
	rec := catalog.Record{Op: catalog.OpCreate, Name: req.Name, Kind: catalog.KindCSV, Shards: req.Shards}
	var tab *hypdb.Table
	if req.Driver != "" || req.DSN != "" || req.SQLTable != "" {
		// SQL-backed registration: driver + DSN + table instead of a CSV body.
		if req.CSV != "" {
			return 0, nil, badRequest("a dataset is either CSV or SQL-backed, not both")
		}
		if !slices.Contains(s.cfg.AllowSQLDrivers, req.Driver) {
			return 0, nil, &api.Error{
				Status: http.StatusForbidden, Code: api.CodeBadRequest,
				Message: fmt.Sprintf("SQL dataset registration for driver %q is not enabled on this server (AllowSQLDrivers)", req.Driver),
			}
		}
		rec = catalog.Record{
			Op: catalog.OpCreate, Name: req.Name, Kind: catalog.KindSQL,
			Driver: req.Driver, DSN: req.DSN, SQLTable: req.SQLTable,
		}
	} else {
		var err error
		if tab, err = hypdb.ReadCSV(strings.NewReader(req.CSV)); err != nil {
			return 0, nil, mapError("dataset registration", err)
		}
	}
	e, err := s.open(c.ctx, rec, tab)
	if err != nil {
		return 0, nil, mapError("dataset registration", err)
	}
	if rec.Kind == catalog.KindCSV {
		rec.Shards = 1
		if si, ok := e.db.ShardInfo(); ok {
			rec.Shards = si.Shards
		}
		if s.journal != nil {
			// The raw CSV spills to its own file.
			rec.CSVFile, err = s.journal.SpillCSV(req.Name, req.CSV)
		}
	}
	if err == nil {
		err = s.journalCreate(rec)
	}
	if err != nil {
		// Roll the registration back so a client retry starts clean.
		s.mu.Lock()
		delete(s.datasets, e.name)
		s.mu.Unlock()
		e.queue.Close()
		e.db.Close()
		s.log.Error("persisting dataset create", "name", req.Name, "error", err)
		return 0, nil, &api.Error{
			Status: http.StatusInternalServerError, Code: api.CodeInternal,
			Message: "persisting the registration failed; dataset not created",
		}
	}
	s.log.Info("dataset created", "name", req.Name, "backend", e.backend,
		"rows", e.rows.Load(), "cols", e.cols)
	return http.StatusCreated, s.infoOf(e), nil
}

// handleShutdown triggers the binary's graceful drain (Config.OnShutdown)
// from the API — an operator action. The hook runs on its own goroutine
// and only sheds queued and new work, so the caller still gets its 202
// acknowledgement even though the server is about to start shedding.
func (s *Server) handleShutdown(c *call, _ *noBody) (int, any, *api.Error) {
	if s.cfg.OnShutdown == nil {
		return 0, nil, &api.Error{
			Status: http.StatusForbidden, Code: api.CodeForbidden,
			Message: "shutdown over HTTP is not enabled on this server",
		}
	}
	s.log.Info("shutdown requested via API", "client", identityFrom(c.r.Context()).name)
	go s.cfg.OnShutdown()
	return http.StatusAccepted, api.Health{Status: "shutting down"}, nil
}

// handleAppend streams rows into a sharded dataset. The append reserves
// one concurrency slot (it contends with analyses for the backend), admits
// the rows as a new delta partition under a new snapshot version (the
// backend merges its deltas size-tiered), and returns the dataset's new
// size. Analyses in flight during the append
// keep the snapshot they pinned at entry.
func (s *Server) handleAppend(c *call, req *api.AppendRequest) (int, any, *api.Error) {
	e := c.e
	if len(req.Rows) == 0 {
		return 0, nil, badRequest("append has no rows")
	}
	for i, row := range req.Rows {
		if len(row) != e.cols {
			return 0, nil, badRequest(fmt.Sprintf(
				"row %d has %d values; dataset %q has %d attributes", i, len(row), e.name, e.cols))
		}
	}
	if apiErr := c.admit(1); apiErr != nil {
		return 0, nil, apiErr
	}

	start := s.now()
	// Apply and journal under one lock so the journal's record order
	// matches the backend's version assignment; replay then reproduces the
	// same snapshot version sequence.
	e.appendMu.Lock()
	res, err := e.db.Append(c.ctx, req.Rows)
	if err == nil && s.journal != nil {
		if jerr := s.journal.Append(catalog.Record{Op: catalog.OpAppend, Name: e.name, Rows: req.Rows}); jerr != nil {
			// The rows are in memory but not durable: surface the failure so
			// the operator repairs the data dir; a retry would double-append.
			e.appendMu.Unlock()
			s.log.Error("journaling append", "name", e.name, "error", jerr)
			return 0, nil, &api.Error{
				Status: http.StatusInternalServerError, Code: api.CodeInternal,
				Message: "append applied but not persisted; check the server's data dir before retrying",
			}
		}
	}
	e.appendMu.Unlock()
	if err != nil {
		return 0, nil, mapError("append", err)
	}
	// Monotonic update: concurrent appends can reach this line out of order
	// (the one that appended last may store first), and a plain Store would
	// leave the gauge stale-low until the next append. NumRows only grows,
	// so the larger value is always the newer one.
	for {
		cur := e.rows.Load()
		if int64(res.NumRows) <= cur || e.rows.CompareAndSwap(cur, int64(res.NumRows)) {
			break
		}
	}
	e.appends.Add(1)
	e.rowsAppended.Add(int64(res.Appended))
	s.appends.Add(1)
	s.rowsAppended.Add(int64(res.Appended))
	s.log.Info("append", "dataset", e.name, "rows", res.Appended,
		"version", res.Version, "duration", s.now().Sub(start).String())
	return http.StatusOK, api.AppendResponse{
		Appended: res.Appended, Rows: res.NumRows, Version: res.Version,
	}, nil
}

// handleCounts serves dictionary-coded group-by counts to remote-shard
// coordinators — the server side of the cluster transport (wire types in
// hypdb/source/remote). The request is evaluated against a pinned snapshot
// of the dataset: when the coordinator sends the version it pinned at
// registration and this node's dataset has since moved on, the answer is
// 409 version_skew rather than counts from a different epoch. A request
// with include_schema true additionally returns the (optionally
// restricted) view's schema and dictionaries — the registration handshake.
func (s *Server) handleCounts(c *call, req *remote.CountsRequest) (int, any, *api.Error) {
	e := c.e
	if apiErr := c.admit(1); apiErr != nil {
		return 0, nil, apiErr
	}

	// Pin one snapshot for the whole request: the version check, the counts
	// and the schema all describe the same epoch even if an append lands
	// mid-request. Backends without snapshot versions are pinned by the
	// dataset's registration epoch instead — a nonzero version, so the
	// caller always sends expect_version back and a delete/re-register
	// between calls trips the skew check rather than silently serving
	// counts from the replacement data.
	serving := e.db.Relation()
	ver := e.epoch
	if cc, ok := serving.(*countcache.Relation); ok {
		pinned := cc.Pin()
		serving = pinned
		if v := pinned.Version(); v != 0 {
			ver = v
		}
	}
	if req.ExpectVersion != 0 && req.ExpectVersion != ver {
		return 0, nil, &api.Error{
			Status: http.StatusConflict, Code: api.CodeVersionSkew,
			Message: fmt.Sprintf("dataset %q is at snapshot version %d, caller pinned %d (re-open the remote dataset)",
				e.name, ver, req.ExpectVersion),
		}
	}
	if req.Restrict != "" {
		pred, err := hypdb.ParsePredicate(req.Restrict)
		if err != nil {
			return 0, nil, mapError("counts", err)
		}
		if serving, err = serving.Restrict(c.ctx, pred); err != nil {
			return 0, nil, mapError("counts", err)
		}
	}

	resp := remote.CountsResponse{Version: ver}
	if req.IncludeSchema {
		attrs := serving.Attributes()
		labels := make([][]string, len(attrs))
		for i, a := range attrs {
			l, err := serving.Labels(c.ctx, a)
			if err != nil {
				return 0, nil, mapError("counts", err)
			}
			labels[i] = l
		}
		rows, err := serving.NumRows(c.ctx)
		if err != nil {
			return 0, nil, mapError("counts", err)
		}
		resp.Schema = &remote.Schema{
			Attrs: attrs, Labels: labels, Rows: rows,
			Version: ver, Backend: serving.Backend(),
		}
		return http.StatusOK, resp, nil
	}
	var where source.Predicate
	if req.Where != "" {
		var err error
		if where, err = hypdb.ParsePredicate(req.Where); err != nil {
			return 0, nil, mapError("counts", err)
		}
	}
	counts, err := source.TabulateWhere(c.ctx, serving, req.Attrs, where)
	if err != nil {
		return 0, nil, mapError("counts", err)
	}
	// Groups go out in cell order (first attribute fastest), so identical
	// requests return identical bytes.
	counts.EachCell(func(codes []int32, c int) {
		resp.Groups = append(resp.Groups, slices.Clone(codes))
		resp.Counts = append(resp.Counts, c)
	})
	e.countsServed.Add(1)
	s.countsServed.Add(1)
	return http.StatusOK, resp, nil
}

func (s *Server) handleListDatasets(*call, *noBody) (int, any, *api.Error) {
	list := s.entries()
	out := api.DatasetList{Datasets: make([]api.DatasetInfo, 0, len(list))}
	for _, e := range list {
		out.Datasets = append(out.Datasets, s.infoOf(e))
	}
	sort.Slice(out.Datasets, func(i, j int) bool { return out.Datasets[i].Name < out.Datasets[j].Name })
	return http.StatusOK, out, nil
}

func (s *Server) handleDeleteDataset(c *call, _ *noBody) (int, any, *api.Error) {
	name := c.e.name
	// Journal before unregistering: if persistence fails, nothing changed
	// and the client may retry; once the record is durable the in-memory
	// removal cannot be lost to a crash.
	if err := s.journalDelete(name); err != nil {
		s.log.Error("journaling dataset delete", "name", name, "error", err)
		return 0, nil, &api.Error{
			Status: http.StatusInternalServerError, Code: api.CodeInternal,
			Message: "persisting the deletion failed; dataset not deleted",
		}
	}
	s.mu.Lock()
	e, ok := s.datasets[name]
	delete(s.datasets, name)
	s.mu.Unlock()
	if !ok {
		// A racing delete won between our lookup and now; its journal record
		// and ours are both harmless no-ops on replay.
		return 0, nil, notFound(name)
	}
	// Teardown: the dataset is already out of the registry, so no new work
	// can reach it; drain the fair queue's full capacity (waiting for
	// in-flight analyses, which hold slots for their whole run) before
	// releasing the backend — sql.DB.Close only waits for queries that have
	// started, not for an analysis between queries. The drain happens
	// off-request so DELETE returns immediately.
	go func() {
		if release, err := e.queue.Drain(s.closing); err == nil {
			defer release()
		}
		if err := e.db.Close(); err != nil {
			s.log.Error("closing dataset handle", "name", name, "error", err)
		}
	}()
	s.log.Info("dataset deleted", "name", name)
	return http.StatusNoContent, nil, nil
}

func (s *Server) handleStats(c *call, _ *noBody) (int, any, *api.Error) {
	e := c.e
	st := e.db.Stats()
	out := api.DatasetStats{
		DatasetInfo: s.infoOf(e),
		Cache:       api.CacheStats{CDComputes: st.CDComputes, CDHits: st.CDHits},
		Analyses:    e.analyses.Load(),
	}
	attrs, err := e.db.Attributes(c.ctx)
	if err != nil {
		return 0, nil, mapError("stats", err)
	}
	for _, a := range attrs {
		out.Attributes = append(out.Attributes, api.AttributeInfo{Name: a.Name, Distinct: a.Distinct})
	}
	return http.StatusOK, out, nil
}

func (s *Server) infoOf(e *entry) api.DatasetInfo {
	info := api.DatasetInfo{
		Name: e.name, Rows: int(e.rows.Load()), Cols: e.cols,
		Backend: e.backend, CreatedAt: e.created,
	}
	if si, ok := e.db.ShardInfo(); ok {
		info.Shards, info.Version = si.Shards, si.Version
	}
	for _, p := range e.db.RemotePeers() {
		info.Peers = append(info.Peers, p.URL)
	}
	return info
}

func (s *Server) lookup(name string) (*entry, *api.Error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[name]
	if !ok {
		return nil, notFound(name)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Analysis

func (s *Server) handleAnalyze(c *call, req *api.AnalyzeRequest) (int, any, *api.Error) {
	opts, err := req.Options.ToOptions()
	if err != nil {
		return 0, nil, badRequest(err.Error())
	}
	q, err := req.Query.ToQuery(req.Dataset)
	if err != nil {
		return 0, nil, mapError("analysis", err)
	}
	if apiErr := c.admit(1); apiErr != nil {
		return 0, nil, apiErr
	}

	start := s.now()
	rep, err := c.e.db.Analyze(c.ctx, q, opts...)
	if err != nil {
		return 0, nil, mapError("analysis", err)
	}
	c.e.analyses.Add(1)
	s.analyses.Add(1)
	s.log.Info("analyze", "dataset", req.Dataset, "treatment", q.Treatment,
		"duration", s.now().Sub(start).String())
	return http.StatusOK, api.ReportFromCore(rep), nil
}

func (s *Server) handleBatch(c *call, req *api.BatchRequest) (int, any, *api.Error) {
	if len(req.Queries) == 0 {
		return 0, nil, badRequest("batch has no queries")
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		return 0, nil, badRequest(err.Error())
	}
	// Per-item error isolation: a malformed query gets its error entry and
	// the rest of the batch still runs. Valid queries are compacted for the
	// session call and their results scattered back to request positions.
	itemErrs := make([]*api.Error, len(req.Queries))
	queries := make([]hypdb.Query, 0, len(req.Queries))
	queryPos := make([]int, 0, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.ToQuery(req.Dataset)
		if err != nil {
			apiErr := mapError("batch analysis", err)
			apiErr.Message = fmt.Sprintf("query %d: %s", i, apiErr.Message)
			itemErrs[i] = apiErr
			continue
		}
		queries = append(queries, q)
		queryPos = append(queryPos, i)
	}
	if len(queries) == 0 {
		return http.StatusOK, api.BatchResponse{Reports: make([]*api.Report, len(req.Queries)), Errors: itemErrs}, nil
	}
	// The batch reserves one concurrency slot per worker it will run, so
	// the per-dataset limit genuinely bounds concurrent analyses even when
	// several batches race single requests. The queue capacity is the limit the
	// dataset was registered with — the single source of truth.
	workers := req.Options.Workers
	if limit := c.e.queue.Capacity(); workers <= 0 || workers > limit {
		workers = limit
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	opts = append(opts, hypdb.WithWorkers(workers))
	if apiErr := c.admit(workers); apiErr != nil {
		return 0, nil, apiErr
	}

	start := s.now()
	reps, errs := c.e.db.AnalyzeAllSettled(c.ctx, queries, opts...)
	c.e.analyses.Add(int64(len(queries)))
	s.analyses.Add(int64(len(queries)))
	s.log.Info("analyze batch", "dataset", req.Dataset, "queries", len(queries),
		"duration", s.now().Sub(start).String())
	out := api.BatchResponse{Reports: make([]*api.Report, len(req.Queries))}
	failed := 0
	for j, rep := range reps {
		i := queryPos[j]
		if errs[j] != nil {
			apiErr := mapError("batch analysis", errs[j])
			apiErr.Message = fmt.Sprintf("query %d: %s", i, apiErr.Message)
			itemErrs[i] = apiErr
			continue
		}
		out.Reports[i] = api.ReportFromCore(rep)
	}
	for _, apiErr := range itemErrs {
		if apiErr != nil {
			failed++
		}
	}
	if failed > 0 {
		out.Errors = itemErrs
		s.log.Info("analyze batch errors", "dataset", req.Dataset, "failed", failed)
	}
	return http.StatusOK, out, nil
}

// handleAudit runs a lattice-wide bias sweep over one dataset. Sweeps are
// long-running, so the handler is built to be polled from outside: it
// reserves worker slots on the dataset's concurrency limiter like a batch
// (bounding how much of the dataset's capacity one sweep may take), and it
// streams candidate progress into the dataset's audit counters, which
// GET /v1/metrics exposes while the sweep is still running.
func (s *Server) handleAudit(c *call, req *api.AuditRequest) (int, any, *api.Error) {
	e := c.e
	opts, err := req.Options.ToOptions()
	if err != nil {
		return 0, nil, badRequest(err.Error())
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		return 0, nil, mapError("audit", err)
	}
	// Like batches, a sweep reserves one limiter slot per worker it may
	// run, keeping the per-dataset concurrency bound honest when sweeps
	// race single analyses.
	workers := req.Spec.Workers
	if limit := e.queue.Capacity(); workers <= 0 || workers > limit {
		workers = limit
	}
	spec.Workers = workers

	// Progress callbacks arrive serialized, with cumulative done counts;
	// publish the deltas into the dataset's cumulative counters.
	var prevDone, prevTotal int
	spec.Progress = func(done, total int) {
		e.auditCandsDone.Add(int64(done - prevDone))
		e.auditCandsTotal.Add(int64(total - prevTotal))
		prevDone, prevTotal = done, total
	}
	if apiErr := c.admit(workers); apiErr != nil {
		return 0, nil, apiErr
	}

	s.auditsInFlight.Add(1)
	e.auditsRunning.Add(1)
	start := s.now()
	rep, err := e.db.Audit(c.ctx, spec, opts...)
	e.auditsRunning.Add(-1)
	s.auditsInFlight.Add(-1)
	if err != nil {
		// Reconcile the progress counters: a failed or cancelled sweep
		// never finishes its candidates, so deduct the unfinished
		// remainder from the cumulative total — keeping the documented
		// invariant that total equals done once nothing is running.
		if remainder := prevTotal - prevDone; remainder > 0 {
			e.auditCandsTotal.Add(int64(-remainder))
		}
		return 0, nil, mapError("audit", err)
	}
	e.audits.Add(1)
	s.audits.Add(1)
	s.log.Info("audit", "dataset", req.Dataset,
		"candidates", rep.Candidates, "findings", rep.TotalFindings,
		"duration", s.now().Sub(start).String())
	return http.StatusOK, api.AuditReportFromCore(rep), nil
}

// ---------------------------------------------------------------------------
// Health and metrics

func (s *Server) handleHealth(*call, *noBody) (int, any, *api.Error) {
	return http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: s.now().Sub(s.started).Seconds(),
	}, nil
}

// ---------------------------------------------------------------------------
// Error classification

func badRequest(msg string) *api.Error {
	return &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadRequest, Message: msg}
}

func notFound(name string) *api.Error {
	return &api.Error{
		Status: http.StatusNotFound, Code: api.CodeDatasetNotFound,
		Message: fmt.Sprintf("no dataset %q", name),
	}
}

// mapError classifies a pipeline error into the service's error envelope:
// an *api.Error as it is, anything else via the library's sentinel errors.
// op names the operation that ran, for the timeout message.
func mapError(op string, err error) *api.Error {
	if apiErr := (*api.Error)(nil); errors.As(err, &apiErr) {
		return apiErr
	}
	var rej *admission.Rejection
	if errors.As(err, &rej) {
		e := &api.Error{Message: rej.Error(), RetryAfterSeconds: rej.RetryAfter.Seconds()}
		switch rej.Reason {
		case admission.RateLimited:
			e.Status, e.Code = http.StatusTooManyRequests, api.CodeRateLimited
		case admission.Draining:
			e.Status, e.Code = http.StatusServiceUnavailable, api.CodeShuttingDown
		default: // QueueFull, DeadlineUnmeetable: the dataset is saturated.
			e.Status, e.Code = http.StatusServiceUnavailable, api.CodeOverloaded
		}
		return e
	}
	msg := err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &api.Error{Status: http.StatusGatewayTimeout, Code: api.CodeTimeout,
			Message: op + " exceeded the server's request timeout"}
	case errors.Is(err, context.Canceled):
		return &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeShuttingDown,
			Message: "request cancelled (client went away or server is draining)"}
	case errors.Is(err, hypdb.ErrMalformedCSV):
		return &api.Error{Status: http.StatusBadRequest, Code: api.CodeMalformedCSV, Message: msg}
	case errors.Is(err, hypdb.ErrBadPredicate):
		return &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadPredicate, Message: msg}
	case errors.Is(err, hypdb.ErrUnknownAttribute):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeUnknownAttribute, Message: msg}
	case errors.Is(err, hypdb.ErrEmptySelection):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeEmptySelection, Message: msg}
	case errors.Is(err, hypdb.ErrEmptyTable):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeEmptyTable, Message: msg}
	case errors.Is(err, hypdb.ErrNonBinaryTreatment):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeNonBinaryTreatment, Message: msg}
	case errors.Is(err, hypdb.ErrNonNumericOutcome):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeNonNumericOutcome, Message: msg}
	case errors.Is(err, hypdb.ErrNoOverlap):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeNoOverlap, Message: msg}
	case errors.Is(err, hypdb.ErrNeedsMaterialization):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeNeedsMaterialize, Message: msg}
	case errors.Is(err, hypdb.ErrNotAppendable):
		return &api.Error{Status: http.StatusUnprocessableEntity, Code: api.CodeNotAppendable, Message: msg}
	case errors.Is(err, hypdb.ErrVersionSkew):
		return &api.Error{Status: http.StatusConflict, Code: api.CodeVersionSkew, Message: msg}
	case errors.Is(err, hypdb.ErrPeerAuth):
		return &api.Error{Status: http.StatusBadGateway, Code: api.CodePeerAuth, Message: msg}
	case errors.Is(err, hypdb.ErrPeerUnavailable):
		return &api.Error{Status: http.StatusBadGateway, Code: api.CodePeerUnavailable, Message: msg}
	default:
		return &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Message: msg}
	}
}
