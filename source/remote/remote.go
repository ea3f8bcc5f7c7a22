// Package remote implements the client half of HypDB's remote-shard
// transport: a source.Relation backed by a dataset served on a remote
// hypdbd peer, speaking the counts-serving endpoint
// (POST /v1/datasets/{name}/counts).
//
// A remote relation is a pinned snapshot of the peer's dataset: Open
// performs a schema/dictionary handshake that captures the peer's
// attributes, per-attribute dictionaries, row count and snapshot version,
// and every subsequent counts call carries that version — the peer answers
// 409 version_skew if its dataset has moved on, which surfaces as
// hyperr.ErrVersionSkew instead of silently mixing epochs. Restrict is a
// second handshake: the predicate is rendered to SQL, the peer restricts
// the relation server-side (with the backend's own dictionary compaction)
// and returns the restricted schema, so a coordinator's restricted child
// codes exactly like a local backend would.
//
// The transport is hardened for a hot path that runs once per
// covariate-discovery closure: per-attempt request deadlines, bounded
// retry with exponential backoff and jitter (counts requests are
// idempotent reads), and a background health-check loop per peer that
// fails calls fast — wrapping hyperr.ErrPeerUnavailable — while the peer
// is down, so a degrading coordinator can re-fan-out to the surviving
// shards without waiting out a retry budget per request.
//
// The relation is counts-only: it deliberately implements no
// source.Materializer, so row-level analysis paths fail with
// ErrNeedsMaterialization rather than shipping raw rows over the network.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// Default transport parameters; zero Options fields fall back to these.
const (
	// DefaultRequestTimeout bounds each counts attempt (not the whole
	// retried call).
	DefaultRequestTimeout = 15 * time.Second
	// DefaultMaxRetries is how many times a failed idempotent request is
	// retried after the first attempt.
	DefaultMaxRetries = 3
	// DefaultRetryBackoff is the first retry's delay; it doubles per
	// attempt, with ±50% jitter.
	DefaultRetryBackoff = 100 * time.Millisecond
	// DefaultHealthInterval is the health-check loop's probe period.
	DefaultHealthInterval = 5 * time.Second
)

// Options tunes one peer's transport. The zero value uses the package
// defaults.
type Options struct {
	// Client is the HTTP client; nil builds one with dial/TLS timeouts
	// and keep-alive pooling. Per-attempt deadlines come from
	// RequestTimeout regardless.
	Client *http.Client
	// RequestTimeout bounds each individual attempt; the whole call takes
	// at most (1+MaxRetries)×(RequestTimeout+backoff). Zero means
	// DefaultRequestTimeout; negative disables the per-attempt deadline.
	RequestTimeout time.Duration
	// MaxRetries bounds retries after the first attempt, applied only to
	// retry-safe failures (network errors, timeouts, 5xx). Zero means
	// DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt with
	// ±50% jitter. Zero means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// HealthInterval is the background health-probe period. Zero means
	// DefaultHealthInterval; negative disables the loop (calls then always
	// go to the network).
	HealthInterval time.Duration
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>" on
	// every request to the peer — the registration handshake, counts calls,
	// and health probes — so token-protected peers can be mounted. A peer
	// answering 401/403 anyway surfaces hyperr.ErrPeerAuth: a credential
	// fault is final, never retried and never degraded away.
	Token string
}

func (o Options) requestTimeout() time.Duration {
	switch {
	case o.RequestTimeout > 0:
		return o.RequestTimeout
	case o.RequestTimeout < 0:
		return 0
	default:
		return DefaultRequestTimeout
	}
}

func (o Options) maxRetries() int {
	switch {
	case o.MaxRetries > 0:
		return o.MaxRetries
	case o.MaxRetries < 0:
		return 0
	default:
		return DefaultMaxRetries
	}
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return DefaultRetryBackoff
}

func (o Options) healthInterval() time.Duration {
	switch {
	case o.HealthInterval > 0:
		return o.HealthInterval
	case o.HealthInterval < 0:
		return 0
	default:
		return DefaultHealthInterval
	}
}

func (o Options) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			DialContext:         (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			TLSHandshakeTimeout: 10 * time.Second,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// PeerStats is a snapshot of one peer's transport counters, surfaced
// through DB.RemotePeers and /v1/metrics.
type PeerStats struct {
	// URL is the peer's base URL; Dataset the served dataset name.
	URL     string
	Dataset string
	// Version is the snapshot version pinned at the handshake.
	Version uint64
	// Healthy is the health loop's latest verdict (true when the loop is
	// disabled and no call has failed).
	Healthy bool
	// Requests counts counts calls issued (first attempts); Retries counts
	// extra attempts; Errors counts calls that failed after the retry
	// budget; CountsServed counts calls that returned group counts.
	Requests     int64
	Retries      int64
	Errors       int64
	CountsServed int64
	// LastRTT and AvgRTT measure successful request round trips.
	LastRTT time.Duration
	AvgRTT  time.Duration
}

// peer is the shared per-node transport state: one peer serves the root
// relation and every restricted view derived from it.
type peer struct {
	base    string // URL with trailing slash trimmed
	dataset string
	hc      *http.Client
	opts    Options

	healthy  atomic.Bool
	requests atomic.Int64
	retries  atomic.Int64
	errs     atomic.Int64
	served   atomic.Int64
	lastRTT  atomic.Int64 // nanoseconds
	rttSum   atomic.Int64
	rttN     atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

// Relation is a source.Relation served by a remote hypdbd peer: a pinned,
// immutable, counts-only snapshot of one dataset (or a server-side
// restriction of it). Create with Open; the root relation owns the peer's
// health loop and must be released with Close.
type Relation struct {
	p        *peer
	root     bool
	backend  string
	attrs    []string
	byName   map[string]int
	labels   [][]string
	rows     int
	ver      uint64
	restrict dataset.Predicate // nil on the root relation
}

// Open dials a hypdbd peer and performs the registration handshake for the
// named dataset: the peer's schema, per-attribute dictionaries, row count
// and snapshot version are captured, pinning the relation to that version.
// The returned relation is safe for concurrent use and must be released
// with Close (which stops the peer's health-check loop).
func Open(ctx context.Context, baseURL, dataset string, opts Options) (*Relation, error) {
	p := &peer{
		base:    strings.TrimRight(baseURL, "/"),
		dataset: dataset,
		hc:      opts.client(),
		opts:    opts,
		stop:    make(chan struct{}),
	}
	p.healthy.Store(true)
	resp, err := p.counts(ctx, CountsRequest{IncludeSchema: true})
	if err != nil {
		close(p.stop)
		return nil, err
	}
	r, err := fromSchema(p, resp, nil, true)
	if err != nil {
		close(p.stop)
		return nil, err
	}
	if iv := opts.healthInterval(); iv > 0 {
		go p.healthLoop(iv)
	}
	return r, nil
}

// fromSchema builds a Relation from a handshake response. A schema that is
// missing, names an attribute or a label twice, lacks a dictionary or
// claims a negative row count is ErrPeerUnavailable.
func fromSchema(p *peer, resp *CountsResponse, restrict dataset.Predicate, root bool) (*Relation, error) {
	s := resp.Schema
	if s == nil {
		return nil, fmt.Errorf("remote: peer %s: handshake response has no schema: %w", p.base, hyperr.ErrPeerUnavailable)
	}
	if len(s.Labels) != len(s.Attrs) {
		return nil, fmt.Errorf("remote: peer %s: schema has %d attrs but %d dictionaries: %w",
			p.base, len(s.Attrs), len(s.Labels), hyperr.ErrPeerUnavailable)
	}
	if s.Rows < 0 {
		return nil, fmt.Errorf("remote: peer %s: schema has %d rows: %w", p.base, s.Rows, hyperr.ErrPeerUnavailable)
	}
	byName := make(map[string]int, len(s.Attrs))
	for i, a := range s.Attrs {
		if _, dup := byName[a]; dup {
			return nil, fmt.Errorf("remote: peer %s: schema names attribute %q twice: %w",
				p.base, a, hyperr.ErrPeerUnavailable)
		}
		byName[a] = i
		if distinct := slices.Compact(slices.Sorted(slices.Values(s.Labels[i]))); len(distinct) != len(s.Labels[i]) {
			return nil, fmt.Errorf("remote: peer %s: dictionary of %q names a label twice: %w", p.base, a, hyperr.ErrPeerUnavailable)
		}
	}
	backend := fmt.Sprintf("remote:%s/%s@v%d", p.base, p.dataset, resp.Version)
	if restrict != nil {
		backend += "|σ:" + restrict.SQL()
	}
	return &Relation{
		p:        p,
		root:     root,
		backend:  backend,
		attrs:    append([]string(nil), s.Attrs...),
		byName:   byName,
		labels:   s.Labels,
		rows:     s.Rows,
		ver:      resp.Version,
		restrict: restrict,
	}, nil
}

// Name implements source.Relation: the dataset's name on the peer.
func (r *Relation) Name() string { return r.p.dataset }

// Backend implements source.Relation. The identity names the peer, the
// dataset and the pinned snapshot version (plus the restriction, for
// restricted views), so cached statistics never cross peers or epochs.
func (r *Relation) Backend() string { return r.backend }

// Attributes implements source.Relation.
func (r *Relation) Attributes() []string { return r.attrs }

// HasAttribute implements source.Relation.
func (r *Relation) HasAttribute(name string) bool { _, ok := r.byName[name]; return ok }

// NumRows implements source.Relation from the handshake snapshot — no
// network round trip.
func (r *Relation) NumRows(ctx context.Context) (int, error) { return r.rows, ctx.Err() }

// Labels implements source.Relation from the handshake snapshot — no
// network round trip. Callers must not mutate the returned slice.
func (r *Relation) Labels(ctx context.Context, attr string) ([]string, error) {
	i, ok := r.byName[attr]
	if !ok {
		return nil, fmt.Errorf("remote: relation %q has no attribute %q: %w", r.Name(), attr, hyperr.ErrUnknownAttribute)
	}
	return r.labels[i], ctx.Err()
}

// Cardinality implements the optional distinct-count capability from the
// handshake dictionaries.
func (r *Relation) Cardinality(ctx context.Context, attr string) (int, error) {
	labels, err := r.Labels(ctx, attr)
	if err != nil {
		return 0, err
	}
	return len(labels), nil
}

// Version returns the peer snapshot version the relation is pinned to.
func (r *Relation) Version() uint64 { return r.ver }

// URL returns the peer's base URL.
func (r *Relation) URL() string { return r.p.base }

// Stats snapshots the peer's transport counters.
func (r *Relation) Stats() PeerStats {
	n := r.p.rttN.Load()
	var avg time.Duration
	if n > 0 {
		avg = time.Duration(r.p.rttSum.Load() / n)
	}
	return PeerStats{
		URL:          r.p.base,
		Dataset:      r.p.dataset,
		Version:      r.ver,
		Healthy:      r.p.healthy.Load(),
		Requests:     r.p.requests.Load(),
		Retries:      r.p.retries.Load(),
		Errors:       r.p.errs.Load(),
		CountsServed: r.p.served.Load(),
		LastRTT:      time.Duration(r.p.lastRTT.Load()),
		AvgRTT:       avg,
	}
}

// Counts implements source.Relation: one POST to the peer's counts
// endpoint, carrying the pinned snapshot version (the peer refuses with
// version_skew if its dataset moved on) and the relation's restriction.
func (r *Relation) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	if err := source.CheckAttrs(r, attrs...); err != nil {
		return nil, err
	}
	// A request without IncludeSchema is always a counts request, even with
	// zero attributes (the peer then answers the single total-count group),
	// so an empty attrs set needs no special marker on the wire.
	req := CountsRequest{Attrs: attrs, ExpectVersion: r.ver}
	if r.restrict != nil {
		req.Restrict = r.restrict.SQL()
	}
	if where != nil {
		req.Where = where.SQL()
	}
	resp, err := r.p.counts(ctx, req)
	if err != nil {
		return nil, err
	}
	cards := make([]int, len(attrs))
	for j, a := range attrs {
		cards[j] = len(r.labels[r.byName[a]])
	}
	dc, err := countsFrom(r.p.base, resp, attrs, cards)
	if err != nil {
		return nil, err
	}
	return dc.Map(), nil
}

// countsFrom checks a peer's counts response against the requested
// attributes and their dictionary sizes, and returns it as the sparse form
// of a count view: groups and counts must align, every group must hold one
// in-range code per attribute, and no count may be negative. Groups may
// come in any order, and a repeated group is summed. A violation is
// ErrPeerUnavailable — a peer that answers garbage is treated like one
// that does not answer.
func countsFrom(base string, resp *CountsResponse, attrs []string, cards []int) (*dataset.DenseCounts, error) {
	if len(resp.Groups) != len(resp.Counts) {
		return nil, fmt.Errorf("remote: peer %s: %d groups but %d counts: %w",
			base, len(resp.Groups), len(resp.Counts), hyperr.ErrPeerUnavailable)
	}
	codes := make([]int32, 0, len(attrs)*len(resp.Groups))
	for i, g := range resp.Groups {
		if len(g) != len(attrs) {
			return nil, fmt.Errorf("remote: peer %s: group %d has %d codes, want %d: %w",
				base, i, len(g), len(attrs), hyperr.ErrPeerUnavailable)
		}
		codes = append(codes, g...)
	}
	dc, err := dataset.NewCellCounts(attrs, cards, codes, resp.Counts)
	if err != nil {
		return nil, fmt.Errorf("remote: peer %s: %v: %w", base, err, hyperr.ErrPeerUnavailable)
	}
	return dc, nil
}

// Restrict implements source.Relation with a server-side handshake: the
// predicate is rendered to SQL and the peer restricts the dataset itself —
// compacting dictionaries exactly as its local backend does — then returns
// the restricted schema. The returned relation shares this one's peer (and
// its pinned version) and conjoins further restrictions.
func (r *Relation) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if where == nil {
		return r, nil
	}
	pred := where
	if r.restrict != nil {
		pred = dataset.And{r.restrict, where}
	}
	resp, err := r.p.counts(ctx, CountsRequest{
		Restrict:      pred.SQL(),
		ExpectVersion: r.ver,
		IncludeSchema: true,
	})
	if err != nil {
		return nil, err
	}
	return fromSchema(r.p, resp, pred, false)
}

// Close implements source.Closer: the root relation stops the peer's
// health-check loop. Restricted views share the root's peer and close
// nothing. Safe to call more than once.
func (r *Relation) Close() error {
	if r.root {
		r.p.stopOnce.Do(func() { close(r.p.stop) })
	}
	return nil
}

var (
	_ source.Relation = (*Relation)(nil)
	_ source.Closer   = (*Relation)(nil)
)

// ---------------------------------------------------------------------------
// Peer transport

// counts performs one retried counts call against the peer.
func (p *peer) counts(ctx context.Context, req CountsRequest) (*CountsResponse, error) {
	if !p.healthy.Load() {
		// Fail fast while the health loop says the peer is down: a
		// degrading coordinator re-fans-out immediately instead of paying
		// the retry budget on every counts call of a sweep.
		p.errs.Add(1)
		return nil, fmt.Errorf("remote: peer %s is unhealthy: %w", p.base, hyperr.ErrPeerUnavailable)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding counts request: %w", err)
	}
	p.requests.Add(1)
	endpoint := p.base + "/v1/datasets/" + url.PathEscape(p.dataset) + "/counts"

	var lastErr error
	retries := p.opts.maxRetries()
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			if err := sleepBackoff(ctx, p.opts.retryBackoff(), attempt-1); err != nil {
				return nil, err
			}
		}
		resp, retryable, err := p.attempt(ctx, endpoint, body)
		if err == nil {
			p.healthy.Store(true)
			return resp, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's context ended — report that, not a peer fault:
			// cancellation must never be degraded away as a lost shard.
			return nil, ctxErr
		}
		if !retryable {
			p.errs.Add(1)
			return nil, err
		}
		lastErr = err
	}
	p.errs.Add(1)
	if p.opts.healthInterval() > 0 {
		// Latch unhealthy so concurrent calls fail fast; the health loop
		// restores the flag once the peer answers probes again. Without a
		// loop nothing would restore it, so the latch is skipped.
		p.healthy.Store(false)
	}
	return nil, fmt.Errorf("remote: peer %s: %d attempts failed, last: %v: %w",
		p.base, retries+1, lastErr, hyperr.ErrPeerUnavailable)
}

// attempt performs one HTTP round trip. retryable reports whether the
// failure is safe and worthwhile to retry (network errors, timeouts, 5xx,
// undecodable success bodies — never 4xx, whose verdict is final).
func (p *peer) attempt(ctx context.Context, endpoint string, body []byte) (_ *CountsResponse, retryable bool, err error) {
	actx := ctx
	if t := p.opts.requestTimeout(); t > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, false, fmt.Errorf("remote: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json")
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	start := time.Now()
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("remote: %s: %w", endpoint, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 500:
		return nil, true, fmt.Errorf("remote: %s: HTTP %d", endpoint, resp.StatusCode)
	case resp.StatusCode >= 300:
		return nil, false, decodeWireError(p, resp)
	}
	var out CountsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&out); err != nil {
		return nil, true, fmt.Errorf("remote: %s: undecodable response: %w", endpoint, err)
	}
	rtt := time.Since(start)
	p.lastRTT.Store(int64(rtt))
	p.rttSum.Add(int64(rtt))
	p.rttN.Add(1)
	p.served.Add(1)
	return &out, false, nil
}

// decodeWireError classifies a non-2xx peer response: version_skew maps to
// hyperr.ErrVersionSkew and 401/403 (by status or error code) to
// hyperr.ErrPeerAuth — both final verdicts, never retried and never
// degraded away — everything else is a plain error carrying the peer's
// message.
func decodeWireError(p *peer, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil {
		switch {
		case env.Error.Code == codeVersionSkew:
			return fmt.Errorf("remote: peer %s: %s: %w", p.base, env.Error.Message, hyperr.ErrVersionSkew)
		case env.Error.Code == codeUnauthorized, env.Error.Code == codeForbidden,
			resp.StatusCode == http.StatusUnauthorized, resp.StatusCode == http.StatusForbidden:
			return fmt.Errorf("remote: peer %s: HTTP %d %s: %s: %w",
				p.base, resp.StatusCode, env.Error.Code, env.Error.Message, hyperr.ErrPeerAuth)
		}
		return fmt.Errorf("remote: peer %s: HTTP %d %s: %s", p.base, resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		return fmt.Errorf("remote: peer %s: HTTP %d: %w", p.base, resp.StatusCode, hyperr.ErrPeerAuth)
	}
	return fmt.Errorf("remote: peer %s: HTTP %d", p.base, resp.StatusCode)
}

// sleepBackoff waits out the exponential backoff for retry n (0-based),
// capped at 5s, with ±50% jitter, honoring cancellation.
func sleepBackoff(ctx context.Context, base time.Duration, n int) error {
	const maxDelay = 5 * time.Second
	// Double per retry instead of shifting blindly: base << n overflows to
	// a negative duration for caller-configured retry budgets past ~36,
	// which would dodge the cap and feed rand.Int64N a non-positive span.
	d := base
	for i := 0; i < n && d < maxDelay; i++ {
		d <<= 1
	}
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthLoop probes GET /healthz every interval, updating the peer's
// healthy flag: a down peer makes counts calls fail fast until a probe
// succeeds again.
func (p *peer) healthLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.healthy.Store(p.ping())
		}
	}
}

// ping is one health probe.
func (p *peer) ping() bool {
	timeout := p.opts.requestTimeout()
	if timeout <= 0 || timeout > 5*time.Second {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		return false
	}
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode < 300
}
