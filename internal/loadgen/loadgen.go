package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hypdb/api"
)

// Operation names, used as keys in Result.Latency.
const (
	OpAnalyze = "analyze"
	OpAudit   = "audit"
	OpAppend  = "append"
	OpMetrics = "metrics"
)

// Mix weights the operations a worker draws from; zero weights disable an
// operation. The zero Mix defaults to analyze-only.
type Mix struct {
	Analyze int
	Audit   int
	Append  int
	Metrics int
}

func (m Mix) total() int { return m.Analyze + m.Audit + m.Append + m.Metrics }

// pick draws an operation proportionally to the weights.
func (m Mix) pick(rng *rand.Rand) string {
	n := rng.IntN(m.total())
	if n < m.Analyze {
		return OpAnalyze
	}
	n -= m.Analyze
	if n < m.Audit {
		return OpAudit
	}
	n -= m.Audit
	if n < m.Append {
		return OpAppend
	}
	return OpMetrics
}

// Config parameterizes a load run.
type Config struct {
	// Client is the target server.
	Client *api.Client
	// Dataset is the analyzed/appended dataset; it must already exist.
	Dataset string
	// Query is the analyze query; it should cover the whole dataset (no
	// WHERE) so the epoch check below sees every row.
	Query api.Query
	// Queries, when non-empty, is drawn from uniformly per analyze
	// instead of Query. Chaos runs use distinct WHERE predicates to
	// defeat count caches and force backend traffic. The epoch check is
	// disabled in this mode: filtered totals don't land on batch
	// boundaries.
	Queries []api.Query
	// AuditSpec shapes audit sweeps (only used when Mix.Audit > 0).
	AuditSpec api.AuditSpec
	// AppendRows is the batch appended per append operation. With
	// BaseRows set, successful analyses are checked for epoch purity:
	// every report's total row count must equal BaseRows plus a whole
	// number of batches — a fractional batch means the analysis mixed
	// two snapshot epochs.
	AppendRows [][]string
	BaseRows   int
	// Workers is the number of concurrent load goroutines (default 4).
	Workers int
	// Duration bounds the run (default 1s); the run also ends when ctx
	// does.
	Duration time.Duration
	// PerRequestTimeout is the hang detector: a request that produces
	// neither a response nor a transport error within it counts as Hung
	// (default 60s).
	PerRequestTimeout time.Duration
	// Mix weights the operations (zero value: analyze-only).
	Mix Mix
	// Seed makes worker schedules reproducible (default 1).
	Seed int64
}

// Counts classifies every request outcome of a run.
type Counts struct {
	// OK are successful requests.
	OK int64 `json:"ok"`
	// Shed are typed load-shed rejections: 429 rate_limited and 503
	// overloaded / shutting_down. These are the server working as
	// designed under overload.
	Shed int64 `json:"shed"`
	// MissingRetryAfter counts sheds that violated the contract by
	// carrying no Retry-After hint.
	MissingRetryAfter int64 `json:"missing_retry_after"`
	// TypedErrors are non-shed api.Errors (e.g. 502 from a killed peer):
	// failures, but loud, typed ones.
	TypedErrors int64 `json:"typed_errors"`
	// Transport are connection-level failures (refused, reset, EOF) —
	// expected while a server restarts or a peer dies.
	Transport int64 `json:"transport"`
	// Hung are requests that hit the per-request timeout with no reply:
	// the failure mode the admission layer exists to prevent.
	Hung int64 `json:"hung"`
	// MixedEpoch counts analyses whose row totals straddle append
	// batches — evidence a report blended two snapshot versions.
	MixedEpoch int64 `json:"mixed_epoch"`
}

// Result is a finished run: outcome counts, per-operation latency
// summaries, and a sample of unexpected errors for debugging.
type Result struct {
	Counts       Counts             `json:"counts"`
	Latency      map[string]Summary `json:"latency"`
	ErrorSamples []string           `json:"error_samples,omitempty"`
}

// Violations checks the robustness invariants and returns a description
// of each breach (empty means the run upheld the contract): no hung
// requests, no mixed-epoch reports, no shed without Retry-After, and —
// when p99Max > 0 — every operation's p99 within it.
func (r *Result) Violations(p99Max time.Duration) []string {
	var v []string
	if r.Counts.Hung > 0 {
		v = append(v, fmt.Sprintf("%d requests hung past the per-request timeout (shed-not-hung violated)", r.Counts.Hung))
	}
	if r.Counts.MixedEpoch > 0 {
		v = append(v, fmt.Sprintf("%d analyses observed mixed snapshot epochs", r.Counts.MixedEpoch))
	}
	if r.Counts.MissingRetryAfter > 0 {
		v = append(v, fmt.Sprintf("%d sheds carried no Retry-After hint", r.Counts.MissingRetryAfter))
	}
	if p99Max > 0 {
		for op, s := range r.Latency {
			if s.Count > 0 && s.P99MS > ms(p99Max) {
				v = append(v, fmt.Sprintf("%s p99 %.1fms exceeds bound %.1fms", op, s.P99MS, ms(p99Max)))
			}
		}
	}
	return v
}

// Runner drives one load run. Create with New, then Run.
type Runner struct {
	cfg Config
	// client starts as cfg.Client. It is atomic so that the restart test
	// can repoint a running load at the server's next incarnation.
	client atomic.Pointer[api.Client]
	hists  map[string]*Histogram

	ok, shed, noRetryAfter, typed, transport, hung, mixedEpoch atomic.Int64

	errMu      sync.Mutex
	errSamples []string
}

// New creates a Runner from cfg, applying defaults.
func New(cfg Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.PerRequestTimeout <= 0 {
		cfg.PerRequestTimeout = 60 * time.Second
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = Mix{Analyze: 1}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &Runner{
		cfg: cfg,
		hists: map[string]*Histogram{
			OpAnalyze: {}, OpAudit: {}, OpAppend: {}, OpMetrics: {},
		},
	}
	r.client.Store(cfg.Client)
	return r
}

// Run drives the configured mix until the duration elapses or ctx ends,
// then waits for in-flight requests (each bounded by the per-request
// timeout) and returns the classified result.
func (r *Runner) Run(ctx context.Context) *Result {
	deadline := time.Now().Add(r.cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), 0))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r.one(r.cfg.Mix.pick(rng), rng)
			}
		}(r.cfg.Seed + int64(i))
	}
	wg.Wait()

	res := &Result{
		Counts: Counts{
			OK:                r.ok.Load(),
			Shed:              r.shed.Load(),
			MissingRetryAfter: r.noRetryAfter.Load(),
			TypedErrors:       r.typed.Load(),
			Transport:         r.transport.Load(),
			Hung:              r.hung.Load(),
			MixedEpoch:        r.mixedEpoch.Load(),
		},
		Latency: make(map[string]Summary, len(r.hists)),
	}
	for op, h := range r.hists {
		if s := h.summarize(); s.Count > 0 {
			res.Latency[op] = s
		}
	}
	r.errMu.Lock()
	res.ErrorSamples = append(res.ErrorSamples, r.errSamples...)
	r.errMu.Unlock()
	return res
}

// one executes a single operation and classifies its outcome. The request
// context is deliberately detached from the run deadline: the run ending
// must not masquerade as a server hang.
func (r *Runner) one(op string, rng *rand.Rand) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.PerRequestTimeout)
	defer cancel()
	c := r.client.Load()
	start := time.Now()
	var err error
	switch op {
	case OpAnalyze:
		q := r.cfg.Query
		if len(r.cfg.Queries) > 0 {
			q = r.cfg.Queries[rng.IntN(len(r.cfg.Queries))]
		}
		var rep *api.Report
		rep, err = c.Analyze(ctx, api.AnalyzeRequest{
			Dataset: r.cfg.Dataset,
			Query:   q,
			Options: api.Options{Seed: 1, SkipDirect: true},
		})
		if err == nil && len(r.cfg.Queries) == 0 {
			r.checkEpoch(rep)
		}
	case OpAudit:
		_, err = c.Audit(ctx, api.AuditRequest{
			Dataset: r.cfg.Dataset,
			Spec:    r.cfg.AuditSpec,
			Options: api.Options{Seed: 1},
		})
	case OpAppend:
		_, err = c.Append(ctx, r.cfg.Dataset, r.cfg.AppendRows)
	case OpMetrics:
		_, err = c.Metrics(ctx)
	}
	elapsed := time.Since(start)
	if err == nil {
		r.ok.Add(1)
		r.hists[op].Record(elapsed)
		return
	}

	var apiErr *api.Error
	switch {
	case errors.As(err, &apiErr):
		switch apiErr.Code {
		case api.CodeRateLimited, api.CodeOverloaded, api.CodeShuttingDown:
			r.shed.Add(1)
			if apiErr.RetryAfter() <= 0 {
				r.noRetryAfter.Add(1)
				r.sample(fmt.Sprintf("%s: shed without Retry-After: %v", op, err))
			}
		default:
			r.typed.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		r.hung.Add(1)
		r.sample(fmt.Sprintf("%s: hung for %s: %v", op, elapsed.Round(time.Millisecond), err))
	default:
		// Connection-level failure: refused, reset, EOF — the restart and
		// peer-kill scenarios produce these on purpose.
		r.transport.Add(1)
		if !isTransport(err) {
			r.sample(fmt.Sprintf("%s: unclassified error: %v", op, err))
		}
	}
}

// checkEpoch verifies a report's row total lands exactly on an append
// batch boundary: BaseRows + k·len(AppendRows) for whole k.
func (r *Runner) checkEpoch(rep *api.Report) {
	if len(r.cfg.AppendRows) == 0 || r.cfg.BaseRows <= 0 {
		return
	}
	total := 0
	for _, row := range rep.Answer {
		total += row.Count
	}
	diff := total - r.cfg.BaseRows
	if diff < 0 || diff%len(r.cfg.AppendRows) != 0 {
		r.mixedEpoch.Add(1)
		r.sample(fmt.Sprintf("analyze: mixed-epoch total %d (base %d, batch %d)",
			total, r.cfg.BaseRows, len(r.cfg.AppendRows)))
	}
}

func isTransport(err error) bool {
	var netErr net.Error
	return errors.As(err, &netErr) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// sample retains the first few unexpected errors for the report.
func (r *Runner) sample(msg string) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errSamples) < 8 {
		r.errSamples = append(r.errSamples, msg)
	}
}

// SlowLoris opens conns TCP connections to addr (host:port) and dribbles
// an unfinished HTTP request down each — one header byte per interval —
// until ctx ends. It returns after the connections are up. A server with
// sane read deadlines and admission control keeps serving real traffic
// alongside; pair it with a Runner and assert no hangs.
func SlowLoris(ctx context.Context, addr string, conns int, interval time.Duration) error {
	payload := "POST /v1/analyze HTTP/1.1\r\nHost: loris\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\nX-Dribble: "
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			for j := 0; ctx.Err() == nil; j++ {
				b := byte('a')
				if j < len(payload) {
					b = payload[j]
				}
				if _, err := c.Write([]byte{b}); err != nil {
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
			}
		}(conn)
	}
	return nil
}
