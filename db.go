package hypdb

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"
	"time"

	"hypdb/internal/core"
	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/internal/pool"
	"hypdb/internal/query"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/remote"
	"hypdb/source/sharded"
	"hypdb/source/sqldb"
)

// DB is a long-lived, concurrency-safe session handle over one relation. It
// owns the cross-query analysis state the paper's interactive-latency
// optimizations (Sec 6) call for: covariate-discovery results are memoized
// per (backend, selection, target, candidates, config), so repeated and
// batched queries skip the dominant CD cost entirely. All methods are safe
// for concurrent use; the underlying data is treated as immutable.
//
// The relation behind a handle is a source.Relation: Open and OpenCSV wrap
// an in-memory table (the mem backend), OpenSQL speaks to a database/sql
// database with count pushdown (the sqldb backend), and OpenSource accepts
// any custom backend. Handles over resource-holding backends must be
// released with Close.
//
// Every long-running method takes a context.Context and returns ctx.Err()
// (wrapped) promptly after cancellation — the Monte-Carlo permutation
// loops, the Markov-boundary search and the CD subset enumerations all
// check it.
type DB struct {
	rel source.Relation

	closeOnce sync.Once
	closeErr  error

	mu sync.Mutex
	// cd memoizes covariate discoveries under cdKey; ResetCache replaces
	// it, so it is read under mu. It lives on the handle, not on a view, so
	// discoveries are shared across snapshot pins and requests.
	cd *countcache.Memo
	// batch-planner state, guarded by mu.
	planStats PlannerStats
	lastPlan  *Plan

	// planMu guards the demand-coalescing gates of the batch planner
	// (separate from mu: a leader holds a gate open across a sleep).
	// planWindow is zero by default — requests plan immediately; the
	// server raises it (SetPlanWindow) for cross-request coalescing.
	planMu     sync.Mutex
	planGates  map[string]*planGate
	planWindow time.Duration
}

// Stats reports the session's cache activity. CDComputes counts covariate
// discoveries actually executed; CDHits counts calls answered by a kept or
// an in-flight result, the way countcache.Memo.Do counts them. The memo
// keeps a bounded number of discoveries. Planner aggregates the batch
// planner's cuboid selection and round-trip savings.
type Stats struct {
	CDComputes int
	CDHits     int
	Planner    PlannerStats
}

// OpenOption configures Open and OpenCSV. The zero set of options keeps
// the historical behavior: one in-memory relation, no sharding.
type OpenOption func(*openConfig)

type openConfig struct {
	shards     int
	remotes    []string
	remoteOpts remote.Options
	degraded   bool
}

// WithShards opens the table behind the partition-parallel sharded backend
// with n horizontal partitions: group-by counts fan out to the shards
// concurrently and merge under one shared dictionary, and the handle
// supports streaming Append with versioned snapshots. n < 2 keeps the
// plain in-memory backend. Shard coding is seeded from the table's own
// dictionaries, so every count, code and conclusion is byte-identical to
// the unsharded backend.
func WithShards(n int) OpenOption {
	return func(c *openConfig) { c.shards = n }
}

// WithRemoteShards names the hypdbd peers whose copies of the dataset form
// the shards of an OpenRemote session — one source/remote child per base
// URL, fanned out by the sharded coordinator under one global dictionary.
// Each spec is "url" or "url@token": the suffix after the last '@' is a
// per-peer bearer token attached to every request that peer sees (the
// handshake, counts calls, and health probes), so token-protected peers
// can be mounted; it overrides WithRemoteOptions' Token for that peer.
// Peer URLs therefore must not themselves contain '@'. Repeated options
// accumulate. Ignored by Open/OpenCSV.
func WithRemoteShards(urls ...string) OpenOption {
	return func(c *openConfig) { c.remotes = append(c.remotes, urls...) }
}

// splitPeerSpec splits a WithRemoteShards "url[@token]" peer spec. The
// token is everything after the last '@' so it may itself contain '@';
// specs without one return an empty token.
func splitPeerSpec(spec string) (url, token string) {
	if i := strings.LastIndexByte(spec, '@'); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}

// WithRemoteOptions tunes the remote-shard transport (per-attempt request
// timeouts, retry budget and backoff, health-probe interval) for every
// peer of an OpenRemote session. The default is remote.Options' zero
// value, i.e. the package defaults. Ignored by Open/OpenCSV.
func WithRemoteOptions(o remote.Options) OpenOption {
	return func(c *openConfig) { c.remoteOpts = o }
}

// WithDegradedReads lets an OpenRemote session keep answering when a peer
// is down: a shard failing as unreachable (ErrPeerUnavailable) is skipped
// and the surviving shards answer alone, with every affected Report or
// AuditReport marked Degraded — partial counts, treat as stale. Without
// this option (the default) a lost peer fails the read with a typed error.
// Version skew (ErrVersionSkew) always fails closed, degraded or not.
// Ignored by Open/OpenCSV.
func WithDegradedReads() OpenOption {
	return func(c *openConfig) { c.degraded = true }
}

// Open creates a session handle over an in-memory table (the mem backend,
// or the sharded backend under WithShards). The table must not be mutated
// afterwards — use Append for growth. Close is a no-op for in-memory
// handles but is always safe to call.
func Open(t *Table, opts ...OpenOption) *DB {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards > 1 {
		if sh, err := sharded.Partition(t, "D", cfg.shards); err == nil {
			return OpenSource(sh)
		}
		// Partitioning can only fail on a malformed table; serve it
		// unsharded rather than failing an error-free constructor.
	}
	return OpenSource(mem.New(t))
}

// OpenCSV creates a session handle over a CSV file (header row required;
// all values treated as categorical).
func OpenCSV(path string, opts ...OpenOption) (*DB, error) {
	t, err := dataset.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	return Open(t, opts...), nil
}

// OpenSource creates a session handle over any storage backend implementing
// source.Relation. If the relation implements source.Closer, the handle
// takes ownership: Close releases it.
//
// The handle interposes the dense count cache (internal/countcache): every
// unpredicated group-by count is memoized as a flat OLAP-cube view, and
// requests over attribute subsets are answered by marginalizing the
// smallest cached superset view instead of re-scanning (mem) or re-querying
// (SQL) the backend.
func OpenSource(rel source.Relation) *DB {
	return &DB{
		rel: countcache.Wrap(rel, 0),
		cd:  countcache.NewMemo(),
	}
}

// OpenRemote creates a session handle over a dataset served by remote
// hypdbd peers: one source/remote child is opened per WithRemoteShards URL
// (each pinned to the peer's current snapshot version by the registration
// handshake), and the sharded coordinator reconciles their dictionaries
// into one global coding — a cluster of hypdbd nodes serving one logical
// catalog. The handle owns the children; Close releases them (stopping
// their health-check loops).
//
// Reads fail with ErrPeerUnavailable when a peer is down (or, under
// WithDegradedReads, degrade to the surviving shards and mark reports
// stale) and with ErrVersionSkew when a peer's dataset moved to another
// snapshot version — never a hang, never a mixed-epoch result. The context
// bounds the registration handshakes.
func OpenRemote(ctx context.Context, name string, opts ...OpenOption) (*DB, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.remotes) == 0 {
		return nil, fmt.Errorf("hypdb: OpenRemote needs at least one peer URL (WithRemoteShards)")
	}
	children := make([]source.Relation, 0, len(cfg.remotes))
	closeAll := func() {
		for _, c := range children {
			if cl, ok := c.(source.Closer); ok {
				cl.Close() //nolint:errcheck // best-effort teardown on a failed open
			}
		}
	}
	for _, spec := range cfg.remotes {
		u, tok := splitPeerSpec(spec)
		o := cfg.remoteOpts
		if tok != "" {
			o.Token = tok
		}
		child, err := remote.Open(ctx, u, name, o)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("hypdb: opening remote shard %s: %w", u, err)
		}
		children = append(children, child)
	}
	sh, err := sharded.New(ctx, name, children)
	if err != nil {
		closeAll()
		return nil, err
	}
	sh.SetDegradedReads(cfg.degraded)
	return OpenSource(sh), nil
}

// RemotePeers reports the transport counters of every remote shard behind
// an OpenRemote session — per-peer health, pinned version, request/retry/
// error counts and round-trip times — and nil for sessions with no remote
// children.
func (db *DB) RemotePeers() []remote.PeerStats {
	rel := db.rel
	if c, ok := rel.(*countcache.Relation); ok {
		rel = c.Inner()
	}
	ch, ok := rel.(interface{ Children() []source.Relation })
	if !ok {
		return nil
	}
	var out []remote.PeerStats
	for _, c := range ch.Children() {
		if r, ok := c.(*remote.Relation); ok {
			out = append(out, r.Stats())
		}
	}
	return out
}

// DegradedServes reports how many reads the session's storage layer has
// served degraded — answered by the surviving shards after skipping an
// unavailable peer under WithDegradedReads. Zero for backends without
// degraded reads. Surfaced per dataset in /v1/metrics and /metrics.
func (db *DB) DegradedServes() uint64 { return db.degradedServes() }

// degradedServes reads the storage layer's degraded-serve counter (zero
// for backends without degraded reads). Comparing it before and after a
// pipeline run tells whether that run may have read partial counts; the
// check is conservative — a concurrent call's degraded read can mark this
// one's report stale — which errs on the side of flagging.
func (db *DB) degradedServes() uint64 {
	rel := db.rel
	if c, ok := rel.(*countcache.Relation); ok {
		rel = c.Inner()
	}
	if d, ok := rel.(interface{ DegradedServes() uint64 }); ok {
		return d.DegradedServes()
	}
	return 0
}

// OpenSQL creates a session handle over one table of a database/sql
// database (the sqldb backend): the engine's group-by count queries are
// pushed down to the database. The handle takes ownership of db — Close
// (or the server's dataset teardown) closes it. The context bounds the
// initial schema probe.
func OpenSQL(ctx context.Context, db *sql.DB, table string) (*DB, error) {
	rel, err := sqldb.Open(ctx, db, table)
	if err != nil {
		return nil, err
	}
	return OpenSource(rel), nil
}

// Close releases the handle's backend resources (for SQL-backed handles,
// the *sql.DB and its statements). It is safe to call more than once and
// on in-memory handles, where it is a no-op. Methods must not be called
// after Close.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if c, ok := db.rel.(source.Closer); ok {
			db.closeErr = c.Close()
		}
	})
	return db.closeErr
}

// Relation returns the session's underlying storage relation.
func (db *DB) Relation() source.Relation { return db.rel }

// view returns the relation one API call's backend reads go through. Over
// a versioned (appendable) backend it is pinned to the current snapshot,
// so a concurrent Append can never mix epochs inside one analysis: the
// whole call — covariate discovery, permutation tests, rewritings — sees
// the rows and dictionaries of the moment it started. Over immutable
// backends it is the session relation itself (pinning is free there).
func (db *DB) view() source.Relation {
	if c, ok := db.rel.(*countcache.Relation); ok {
		return c.Pin()
	}
	return db.rel
}

// Append ingests rows (one string per attribute, schema order) into the
// session's relation. Only appendable backends — e.g. sharded ones opened
// with WithShards — accept it; others return ErrNotAppendable. The rows
// become a new delta partition under a new snapshot version; deltas merge
// size-tiered, so the partition count stays logarithmic in the appends
// (docs/ARCHITECTURE.md). In-flight analyses keep their pinned snapshot,
// and primed count-cache views are upgraded in place by tabulating only
// the batch, so the next query does not re-scan the backend.
func (db *DB) Append(ctx context.Context, rows [][]string) (*AppendResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a, ok := db.rel.(source.Appender); ok {
		return a.Append(ctx, rows)
	}
	return nil, fmt.Errorf("hypdb: %s: %w", db.rel.Name(), ErrNotAppendable)
}

// ShardInfo describes a sharded session's partition and snapshot state.
type ShardInfo struct {
	// Shards is the current number of horizontal partitions: the initial
	// shards plus the delta partitions Append's size-tiered merging leaves
	// (popcount(k) after k appends of equal size).
	Shards int
	// Version is the current snapshot version; it starts at 1 and
	// increments with every non-empty Append — and with every degraded
	// (partial) serve, so counts read with a shard missing are never
	// version-matched by later analyses.
	Version uint64
}

// ShardInfo reports the sharding state of the session's backend, and
// whether the backend is sharded at all.
func (db *DB) ShardInfo() (ShardInfo, bool) {
	rel := db.rel
	if c, ok := rel.(*countcache.Relation); ok {
		rel = c.Inner()
	}
	s, ok := rel.(interface {
		NumPartitions() int
		SnapshotVersion() uint64
	})
	if !ok {
		return ShardInfo{}, false
	}
	return ShardInfo{Shards: s.NumPartitions(), Version: s.SnapshotVersion()}, true
}

// AttributeInfo describes one attribute of the session's relation.
type AttributeInfo struct {
	// Name is the column name.
	Name string
	// Distinct is the active-domain size (dictionary cardinality).
	Distinct int
}

// Attributes lists the relation's attributes in schema order with their
// active-domain sizes — the schema surface a service or UI shows before the
// analyst picks treatments and outcomes. For SQL backends this may issue
// one SELECT DISTINCT per attribute (cached on the handle).
func (db *DB) Attributes(ctx context.Context) ([]AttributeInfo, error) {
	names := db.rel.Attributes()
	out := make([]AttributeInfo, 0, len(names))
	for _, n := range names {
		card, err := source.Card(ctx, db.rel, n)
		if err != nil {
			return nil, err
		}
		out = append(out, AttributeInfo{Name: n, Distinct: card})
	}
	return out, nil
}

// NumRows returns the relation's row count.
func (db *DB) NumRows(ctx context.Context) (int, error) { return db.rel.NumRows(ctx) }

// Stats returns a snapshot of the session's cache counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	hits, computes := db.cd.Tally(countcache.Discoveries)
	return Stats{CDComputes: computes, CDHits: hits, Planner: db.planStats}
}

// ResetCache drops all memoized analysis state and zeroes the counters.
func (db *DB) ResetCache() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cd = countcache.NewMemo()
	db.planStats = PlannerStats{}
	db.lastPlan = nil
}

// Analyze runs the full HypDB pipeline — detect, explain, resolve — on a
// query, sharing covariate-discovery results with every other call on this
// handle.
func (db *DB) Analyze(ctx context.Context, q Query, opts ...Option) (*Report, error) {
	return db.analyze(ctx, q, newSettings(opts))
}

// analyze is Analyze over resolved settings. AnalyzeAll calls it per query
// so the batch planner can vary the priming mode (core's SkipPrime) per
// query without re-resolving options.
func (db *DB) analyze(ctx context.Context, q Query, st settings) (*Report, error) {
	o := st.opts
	// Sample the degraded-serve counter before pinning: a concurrent
	// degraded read that lands between the pin and the sample may leave
	// partial counts in the cache under the version this call pins, so the
	// window in which a skip marks this report must open first.
	before := db.degradedServes()
	rel := db.view()
	// A Discover hook already set (only tests set one) wins over the
	// session memoizer, and queries whose WHERE clause has no canonical
	// encoding bypass the cache: both run uncached rather than risking a
	// wrong shared entry. The memo key leads with the pinned backend
	// identity, which embeds the snapshot version — results computed on one
	// epoch are never served to another.
	if o.Discover == nil {
		if whereKey, cacheable := dataset.PredicateKey(q.Where); cacheable {
			o.Discover = db.discoverFunc(rel.Backend(), whereKey)
		}
	}
	rep, err := core.Analyze(ctx, rel, q, o)
	if err == nil && db.degradedServes() > before {
		rep.Degraded = true
	}
	return rep, err
}

// AnalyzeAll analyzes a batch of queries over a worker pool (WithWorkers
// bounds it; default GOMAXPROCS). The reports align with the input order.
// The first failure cancels the remaining work and is returned alongside
// whatever completed; the cache makes overlapping queries in one batch pay
// for covariate discovery once.
//
// The batch's count demands are first routed through the lattice-aware
// multi-query planner: one cuboid frontier is primed into the session count
// cache (coalescing with concurrent Audit and batch calls on this handle)
// and queries the plan covers skip their per-closure priming — fewer
// backend round trips, byte-identical counts.
func (db *DB) AnalyzeAll(ctx context.Context, queries []Query, opts ...Option) ([]*Report, error) {
	st := newSettings(opts)
	reports := make([]*Report, len(queries))
	if len(queries) == 0 {
		return reports, nil
	}
	planned := db.planAnalyses(ctx, queries, st)
	err := pool.Run(ctx, len(queries), st.workers, func(ctx context.Context, i int) error {
		stq := st
		stq.opts.SkipPrime = planned[i]
		rep, err := db.analyze(ctx, queries[i], stq)
		if err != nil {
			return fmt.Errorf("hypdb: query %d: %w", i, err)
		}
		reports[i] = rep
		return nil
	})
	return reports, err
}

// AnalyzeAllSettled analyzes a batch like AnalyzeAll but isolates
// failures: one query's error never cancels its siblings. Reports and
// errors both align with the input order, exactly one of reports[i] /
// errs[i] is non-nil per query, and the call itself only fails on ctx
// cancellation. The server's batch endpoint uses it to return per-item
// error entries instead of failing a whole mixed batch.
func (db *DB) AnalyzeAllSettled(ctx context.Context, queries []Query, opts ...Option) (reports []*Report, errs []error) {
	st := newSettings(opts)
	reports = make([]*Report, len(queries))
	errs = make([]error, len(queries))
	if len(queries) == 0 {
		return reports, errs
	}
	planned := db.planAnalyses(ctx, queries, st)
	// Workers swallow per-query failures into errs, so pool.Run's
	// first-error cancellation never fires for them — only a cancelled
	// context stops the batch, and then every unfinished query reports it.
	_ = pool.Run(ctx, len(queries), st.workers, func(ctx context.Context, i int) error {
		stq := st
		stq.opts.SkipPrime = planned[i]
		reports[i], errs[i] = db.analyze(ctx, queries[i], stq)
		return nil
	})
	for i := range errs {
		if reports[i] == nil && errs[i] == nil {
			errs[i] = ctx.Err()
		}
	}
	return reports, errs
}

// Run executes the (possibly biased) query as written.
func (db *DB) Run(ctx context.Context, q Query) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return query.Run(ctx, db.view(), q)
}

// RewriteTotal executes the bias-removing rewriting for the total effect
// (adjustment formula, Eq 2) over the given covariates.
func (db *DB) RewriteTotal(ctx context.Context, q Query, covariates []string) (*Rewritten, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return query.RewriteTotal(ctx, db.view(), q, covariates)
}

// RewriteDirect executes the natural-direct-effect rewriting (mediator
// formula, Eq 3) over covariates and mediators. WithBaseline fixes the
// treatment value whose mediator distribution is held constant (default:
// the smallest).
func (db *DB) RewriteDirect(ctx context.Context, q Query, covariates, mediators []string, opts ...Option) (*Rewritten, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := newSettings(opts)
	return query.RewriteDirect(ctx, db.view(), q, covariates, mediators, st.opts.Baseline)
}

// DiscoverCovariates runs the CD algorithm for a treatment over candidate
// attributes, memoized on the session; outcomes are excluded from the
// fallback covariate set.
func (db *DB) DiscoverCovariates(ctx context.Context, treatment string, candidates, outcomes []string, opts ...Option) (*CDResult, error) {
	st := newSettings(opts)
	rel := db.view()
	return db.discoverCached(ctx, rel.Backend(), "", rel, treatment, candidates, outcomes, st.opts.Config)
}

// DetectBias tests, per query context, whether the treatment groups are
// balanced with respect to the given variable set.
func (db *DB) DetectBias(ctx context.Context, treatment string, groupings, variables []string, opts ...Option) ([]BiasResult, error) {
	st := newSettings(opts)
	return core.DetectBias(ctx, db.view(), treatment, groupings, variables, st.opts.Config)
}

// EffectBounds adjusts for every subset of the candidate covariates (at
// most 20) and reports the range of effect estimates — the Sec 4 extension
// for treatments whose parents cannot be identified.
func (db *DB) EffectBounds(ctx context.Context, q Query, candidates []string) (*BoundsResult, error) {
	return core.EffectBounds(ctx, db.view(), q, candidates)
}

// ---------------------------------------------------------------------------
// Cross-query covariate-discovery cache

// discoverFunc builds the core.Options.Discover hook for one query: the
// pipeline's CD calls route through the session cache, keyed by the
// calling view's backend identity (which embeds the snapshot version for
// versioned backends) and the query's WHERE clause (the view CD runs on
// is determined by it).
func (db *DB) discoverFunc(backendKey, whereKey string) func(context.Context, source.Relation, string, []string, []string, core.Config) (*core.CDResult, error) {
	return func(ctx context.Context, view source.Relation, target string, candidates, outcomes []string, cfg core.Config) (*core.CDResult, error) {
		return db.discoverCached(ctx, backendKey, whereKey, view, target, candidates, outcomes, cfg)
	}
}

// discoverCached memoizes DiscoverCovariates per (backend, whereKey,
// target, candidates, outcomes, config) in the session memo. Concurrent
// callers of the same key share one computation (single-flight); errors
// are not kept — a waiter whose computing caller failed retries with its
// own context rather than inheriting an error (e.g. the other caller's
// cancellation) that says nothing about its own request. Callers get a
// copy of the kept result.
func (db *DB) discoverCached(ctx context.Context, backendKey, whereKey string, view source.Relation, target string, candidates, outcomes []string, cfg core.Config) (*core.CDResult, error) {
	key := cdKey(backendKey, whereKey, target, candidates, outcomes, cfg)
	db.mu.Lock()
	memo := db.cd
	db.mu.Unlock()
	v, err := memo.Do(ctx, countcache.Discoveries, key, func() (any, error) {
		return core.DiscoverCovariates(ctx, view, target, candidates, outcomes, cfg)
	})
	if err != nil {
		return nil, err
	}
	return cloneCD(v.(*core.CDResult)), nil
}

// cdKey builds the memoization key for one covariate discovery. The
// backend identity leads the key, so cached statistics can never be shared
// across handles over different sources even if cache code is ever hoisted
// out of the per-handle session; every variable-length field is
// length-prefixed, keeping the key injective for any attribute names (the
// same discipline as dataset.PredicateKey). The configuration's part is
// core's Config.DiscoveryKey.
func cdKey(backend, whereKey, target string, candidates, outcomes []string, cfg core.Config) string {
	var b strings.Builder
	writeField := func(s string) { fmt.Fprintf(&b, "%d:%s", len(s), s) }
	writeList := func(list []string) {
		fmt.Fprintf(&b, "%d[", len(list))
		for _, s := range list {
			writeField(s)
		}
		b.WriteByte(']')
	}
	writeField(backend)
	writeField(whereKey)
	writeField(target)
	writeList(candidates)
	writeList(outcomes)
	b.WriteString(cfg.DiscoveryKey())
	return b.String()
}

// cloneCD deep-copies a cached CDResult so callers mutating a report cannot
// poison the cache.
func cloneCD(r *core.CDResult) *core.CDResult {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Boundary = append([]string(nil), r.Boundary...)
	cp.Parents = append([]string(nil), r.Parents...)
	cp.CandidateParents = append([]string(nil), r.CandidateParents...)
	if r.Boundaries != nil {
		cp.Boundaries = make(map[string][]string, len(r.Boundaries))
		for k, v := range r.Boundaries {
			cp.Boundaries[k] = append([]string(nil), v...)
		}
	}
	return &cp
}
