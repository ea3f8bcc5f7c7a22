package admission

import (
	"sync"
	"time"
)

// DefaultMaxClients bounds the limiter's per-client bucket map; past it,
// idle (full) buckets are evicted before arbitrary ones.
const DefaultMaxClients = 4096

// Limiter is a per-client token-bucket rate limiter. Each client identity
// owns a bucket holding up to Burst tokens, refilled continuously at Rate
// tokens per second; a request takes one token or is refused with the
// time until the next token accrues.
//
// A zero or negative Rate disables limiting: Allow always admits. The
// zero value of Limiter is unusable — construct with NewLimiter.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64
	maxN  int
	clock func() time.Time
	mu    sync.Mutex
	bkts  map[string]*bucket
	// deniedBy counts refusals per client identity for metrics label
	// sets. Bounded like bkts: identities beyond maxN aggregate under
	// deniedOther so a flood of one-shot identities cannot grow the map
	// without bound.
	deniedBy map[string]int64
}

// deniedOther is the DeniedByClient key aggregating denials of identities
// beyond the limiter's client cap.
const deniedOther = "other"

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter creates a limiter admitting rate requests per second with
// bursts of up to burst, per client. burst < 1 is raised to 1 (a bucket
// that can never hold a whole token would deny everything). clock
// overrides time.Now for tests; nil uses time.Now.
func NewLimiter(rate float64, burst int, clock func() time.Time) *Limiter {
	if clock == nil {
		clock = time.Now
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &Limiter{
		rate:     rate,
		burst:    b,
		maxN:     DefaultMaxClients,
		clock:    clock,
		bkts:     make(map[string]*bucket),
		deniedBy: make(map[string]int64),
	}
}

// Allow takes one token from client's bucket. When the bucket is empty it
// refuses and reports how long until one token accrues — the Retry-After
// hint. A disabled limiter (rate <= 0) always admits.
func (l *Limiter) Allow(client string) (ok bool, retryAfter time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	now := l.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.bkts[client]
	if b == nil {
		l.evictLocked()
		b = &bucket{tokens: l.burst, last: now}
		l.bkts[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if _, ok := l.deniedBy[client]; ok || len(l.deniedBy) < l.maxN {
		l.deniedBy[client]++
	} else {
		l.deniedBy[deniedOther]++
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// DeniedByClient snapshots the per-client refusal counts (a copy). Nil for
// a nil limiter or when nothing was denied yet. Identities beyond the
// client cap aggregate under "other".
func (l *Limiter) DeniedByClient() map[string]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.deniedBy) == 0 {
		return nil
	}
	out := make(map[string]int64, len(l.deniedBy))
	for id, n := range l.deniedBy {
		out[id] = n
	}
	return out
}

// evictLocked keeps the bucket map bounded: when adding a client would
// exceed the cap, full (idle) buckets go first; if none are full, an
// arbitrary bucket is dropped — a dropped active client merely restarts
// with a full bucket, so eviction can only err on the permissive side.
func (l *Limiter) evictLocked() {
	if len(l.bkts) < l.maxN {
		return
	}
	now := l.clock()
	for id, b := range l.bkts {
		idle := b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst
		if idle {
			delete(l.bkts, id)
			if len(l.bkts) < l.maxN {
				return
			}
		}
	}
	for id := range l.bkts {
		delete(l.bkts, id)
		return
	}
}
