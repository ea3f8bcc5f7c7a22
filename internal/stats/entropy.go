// Package stats implements the statistical machinery HypDB relies on:
// entropy estimation (plug-in and Miller-Madow, Sec 2 / Appendix 10.1 of the
// paper), mutual information and conditional mutual information, the
// chi-squared distribution used by the G-test, binomial proportion
// confidence intervals (Alg 2 line 13), and Borda rank aggregation used by
// fine-grained explanations (Alg 3).
//
// All entropies are in nats (natural logarithm).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Estimator selects the entropy estimator applied to empirical counts.
type Estimator int

const (
	// PlugIn is the maximum-likelihood estimator −Σ F(x)·ln F(x).
	PlugIn Estimator = iota
	// MillerMadow adds the first-order bias correction (m−1)/(2n), where m
	// is the number of observed distinct values. This is the estimator the
	// paper uses throughout (Miller 1955, cited as [32]).
	MillerMadow
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case PlugIn:
		return "plug-in"
	case MillerMadow:
		return "miller-madow"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// EntropyCounts estimates H(X) from a histogram. counts holds the frequency
// of each observed value; total must equal the sum of counts. Zero counts
// are permitted and ignored (they do not contribute to m). A total of zero
// yields entropy zero.
func EntropyCounts(counts []int, total int, est Estimator) float64 {
	if total <= 0 {
		return 0
	}
	n := float64(total)
	h := 0.0
	m := 0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		m++
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	if est == MillerMadow && m > 1 {
		h += float64(m-1) / (2 * n)
	}
	return h
}

// EntropyCountsMap is EntropyCounts for map-shaped histograms. Entropy
// depends only on the multiset of counts, so the counts are extracted and
// sorted before summation: this makes the result independent of Go's
// randomized map iteration order (bit-for-bit reproducibility matters for
// deterministic analyses and caching).
func EntropyCountsMap[K comparable](counts map[K]int, total int, est Estimator) float64 {
	if total <= 0 {
		return 0
	}
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			vals = append(vals, c)
		}
	}
	sort.Ints(vals)
	return EntropyCounts(vals, total, est)
}

// EntropyCountsStable is EntropyCounts for histograms whose storage order
// is representation-dependent — dense OLAP-cube cells, marginalized views.
// Like EntropyCountsMap, the non-zero counts are copied and sorted before
// summation, so the dense and the sparse form of a count view produce
// bit-for-bit identical entropies (which golden-reproducibility and
// cross-backend caching rely on).
func EntropyCountsStable(counts []int, total int, est Estimator) float64 {
	if total <= 0 {
		return 0
	}
	nz := 0
	for _, c := range counts {
		if c > 0 {
			nz++
		}
	}
	vals := make([]int, 0, nz)
	for _, c := range counts {
		if c > 0 {
			vals = append(vals, c)
		}
	}
	sort.Ints(vals)
	return EntropyCounts(vals, total, est)
}

// EntropyProbs computes exact entropy −Σ p·ln p of a probability vector.
// Probabilities that are zero (or negative, defensively) are skipped.
func EntropyProbs(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// JointKey packs up to two int32 codes into one comparable key, used by the
// pairwise entropy helpers below.
type JointKey uint64

// MakeJointKey packs a pair of codes.
func MakeJointKey(a, b int32) JointKey {
	return JointKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// EntropyCodes estimates H(X) directly from a code vector.
func EntropyCodes(codes []int32, card int, est Estimator) float64 {
	counts := make([]int, card)
	for _, c := range codes {
		counts[c]++
	}
	return EntropyCounts(counts, len(codes), est)
}

// JointEntropyCodes estimates H(X,Y) from two parallel code vectors.
func JointEntropyCodes(x, y []int32, est Estimator) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: joint entropy over vectors of different length %d vs %d", len(x), len(y))
	}
	counts := make(map[JointKey]int, 64)
	for i := range x {
		counts[MakeJointKey(x[i], y[i])]++
	}
	return EntropyCountsMap(counts, len(x), est), nil
}

// MutualInformationCodes estimates I(X;Y) = H(X)+H(Y)−H(XY) from parallel
// code vectors. With the plug-in estimator the result is non-negative; the
// Miller-Madow correction can make it slightly negative on independent data,
// which callers should treat as zero dependence.
func MutualInformationCodes(x, y []int32, cardX, cardY int, est Estimator) (float64, error) {
	hxy, err := JointEntropyCodes(x, y, est)
	if err != nil {
		return 0, err
	}
	hx := EntropyCodes(x, cardX, est)
	hy := EntropyCodes(y, cardY, est)
	return hx + hy - hxy, nil
}

// ConditionalEntropy returns H(Y|X) = H(XY) − H(X) given precomputed joint
// and marginal entropies.
func ConditionalEntropy(hXY, hX float64) float64 { return hXY - hX }

// ConditionalMI returns I(X;Y|Z) = H(XZ) + H(YZ) − H(XYZ) − H(Z) given the
// four precomputed entropies. (The paper's appendix misprints this identity;
// this is the standard chain-rule form.)
func ConditionalMI(hXZ, hYZ, hXYZ, hZ float64) float64 {
	return hXZ + hYZ - hXYZ - hZ
}
