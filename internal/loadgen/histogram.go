// Package loadgen is hypdbd's load and chaos harness: it drives
// concurrent analyze/audit/append/metrics mixes against a server through
// the public API client, classifies every outcome (success, typed shed,
// typed error, transport failure, hang), tracks per-operation latency
// histograms, and checks the robustness invariants the server promises —
// overload sheds with Retry-After instead of hanging, and analyses never
// observe a mix of snapshot epochs even while appends race them. The
// cmd/hypdbload binary and the chaos tests (peer kill, slow-loris,
// mid-flight restart) are built on it.
package loadgen

import (
	"math"
	"sync"
	"time"
)

// Exponential latency buckets: bucket i covers
// [bucketBase·growthⁱ, bucketBase·growthⁱ⁺¹), spanning ~50µs to ~1h.
const (
	bucketBase   = 50 * time.Microsecond
	bucketGrowth = 1.3
	numBuckets   = 88
)

// Histogram is a concurrency-safe latency histogram with exponential
// buckets — coarse enough to be tiny, fine enough (30% resolution) for
// p99 assertions.
type Histogram struct {
	mu     sync.Mutex
	counts [numBuckets]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

func bucketFor(d time.Duration) int {
	if d <= bucketBase {
		return 0
	}
	i := int(math.Log(float64(d)/float64(bucketBase)) / math.Log(bucketGrowth))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper bound reported for bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(bucketBase) * math.Pow(bucketGrowth, float64(i+1)))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[bucketFor(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// quantile returns an upper bound for the p-quantile (p in [0,1]); zero
// when the histogram is empty. The bound is the upper edge of the bucket
// holding the p-th observation, so assertions against it are
// conservative.
func (h *Histogram) quantile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Summary is a histogram snapshot in JSON-friendly form (milliseconds).
type Summary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize snapshots the histogram.
func (h *Histogram) summarize() Summary {
	p50, p95, p99 := h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Summary{Count: h.total, P50MS: ms(p50), P95MS: ms(p95), P99MS: ms(p99), MaxMS: ms(h.max)}
	if h.total > 0 {
		s.MeanMS = ms(h.sum / time.Duration(h.total))
	}
	return s
}
