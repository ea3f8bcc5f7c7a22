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
	"slices"
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
		h -= cellTerm(c, n)
	}
	return corrected(h, m, n, est)
}

// cellTerm returns p·ln p for one cell holding c of n rows. The explicit
// conversion rounds the product before it reaches a running sum, so no
// platform fuses the two into one multiply-add and every summation order
// below sees the same operands.
func cellTerm(c int, n float64) float64 {
	p := float64(c) / n
	return float64(p * math.Log(p))
}

// corrected applies the estimator's bias correction to a plug-in entropy h
// over m occupied cells of n rows.
func corrected(h float64, m int, n float64, est Estimator) float64 {
	if est == MillerMadow && m > 1 {
		h += float64(m-1) / (2 * n)
	}
	return h
}

// EntropyCountsMap is EntropyCounts for map-shaped histograms. It sums in
// ascending count order (EntropyCountsStable), so the result does not depend
// on Go's randomized map iteration order (bit-for-bit reproducibility matters
// for deterministic analyses and caching).
func EntropyCountsMap[K comparable](counts map[K]int, total int, est Estimator) float64 {
	if total <= 0 {
		return 0
	}
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	return EntropyCountsStable(vals, total, est)
}

// histSlack and histFactor set when EntropyCountsStable sums by a count
// histogram instead of sorting: when the largest count is at most
// histFactor·(occupied cells) + histSlack, its largest+1 histogram slots cost
// about one more pass over the counts, less than the sort they replace.
const (
	histFactor = 4
	histSlack  = 64
)

// EntropyCountsStable is EntropyCounts for histograms whose storage order
// is representation-dependent — dense OLAP-cube cells, marginalized views.
// It subtracts the non-zero counts' terms in ascending count order, computing
// p·ln p once per distinct count, so it equals EntropyCounts over the sorted
// non-zero counts bit for bit: the dense and the sparse form of a count view
// produce identical entropies (which golden-reproducibility and cross-backend
// caching rely on). Small counts are ordered by a count histogram, large ones
// by sorting a copy; counts is never modified.
func EntropyCountsStable(counts []int, total int, est Estimator) float64 {
	if total <= 0 {
		return 0
	}
	nz, largest := 0, 0
	for _, c := range counts {
		if c > 0 {
			nz++
			largest = max(largest, c)
		}
	}
	n := float64(total)
	h := 0.0
	if largest <= histFactor*nz+histSlack {
		// Most histograms fit the stack buffer, which keeps the common
		// case allocation-free.
		var small [512]int
		var hist []int
		if largest < len(small) {
			hist = small[:largest+1]
		} else {
			hist = make([]int, largest+1)
		}
		for _, c := range counts {
			if c > 0 {
				hist[c]++
			}
		}
		for c, k := range hist {
			if k == 0 {
				continue
			}
			term := cellTerm(c, n)
			for ; k > 0; k-- {
				h -= term
			}
		}
		return corrected(h, nz, n, est)
	}
	vals := make([]int, 0, nz)
	for _, c := range counts {
		if c > 0 {
			vals = append(vals, c)
		}
	}
	slices.Sort(vals)
	for i := 0; i < len(vals); {
		c := vals[i]
		term := cellTerm(c, n)
		for ; i < len(vals) && vals[i] == c; i++ {
			h -= term
		}
	}
	return corrected(h, nz, n, est)
}

// ConditionalMI returns I(X;Y|Z) = H(XZ) + H(YZ) − H(XYZ) − H(Z) given the
// four precomputed entropies. (The paper's appendix misprints this identity;
// this is the standard chain-rule form.)
func ConditionalMI(hXZ, hYZ, hXYZ, hZ float64) float64 {
	return hXZ + hYZ - hXYZ - hZ
}
