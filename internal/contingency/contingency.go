// Package contingency implements contingency tables and Patefield's AS 159
// algorithm for sampling random r×c tables with fixed marginals.
//
// Section 5 of the paper replaces the naive permutation test — which
// re-shuffles the whole database for every replicate — with sampling from
// the distribution of contingency tables with fixed marginals: "randomly
// shuffling data only changes the entries of a contingency table, leaving
// all marginal frequencies unchanged". Patefield's algorithm (AS 159, 1981)
// draws such tables with exactly the probability that random shuffling
// would, at a cost proportional to the table dimensions rather than the
// data size.
package contingency

import (
	"fmt"
	"math"
	"math/rand"

	"hypdb/internal/stats"
)

// Table2 is a two-way r×c contingency table of non-negative counts with
// maintained marginals.
type Table2 struct {
	R, C      int
	counts    []int // row-major
	rowTotals []int
	colTotals []int
	total     int
}

// NewTable2 creates an all-zero r×c table.
func NewTable2(r, c int) (*Table2, error) {
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("contingency: invalid shape %dx%d", r, c)
	}
	return &Table2{
		R:         r,
		C:         c,
		counts:    make([]int, r*c),
		rowTotals: make([]int, r),
		colTotals: make([]int, c),
	}, nil
}

// Reset zeroes all cells and marginals, keeping the shape — so scratch
// tables can be re-tabulated without reallocation.
func (t *Table2) Reset() {
	for i := range t.counts {
		t.counts[i] = 0
	}
	for i := range t.rowTotals {
		t.rowTotals[i] = 0
	}
	for j := range t.colTotals {
		t.colTotals[j] = 0
	}
	t.total = 0
}

// TabulateRows resets t and re-tallies the given row indices of two
// parallel code vectors, reusing t's storage for hot loops (the naive
// shuffle test re-tabulates every group on every permutation replicate).
func (t *Table2) TabulateRows(x, y []int32, rows []int) error {
	if len(x) != len(y) {
		return fmt.Errorf("contingency: code vectors of different length %d vs %d", len(x), len(y))
	}
	t.Reset()
	for _, i := range rows {
		if i < 0 || i >= len(x) {
			return fmt.Errorf("contingency: row index %d out of range", i)
		}
		xi, yi := x[i], y[i]
		if xi < 0 || int(xi) >= t.R || yi < 0 || int(yi) >= t.C {
			return fmt.Errorf("contingency: code out of range at row %d: (%d,%d)", i, xi, yi)
		}
		t.counts[int(xi)*t.C+int(yi)]++
		t.rowTotals[xi]++
		t.colTotals[yi]++
		t.total++
	}
	return nil
}

// Add adds n (possibly negative, e.g. when re-binning) to cell (i,j).
func (t *Table2) Add(i, j, n int) {
	t.counts[i*t.C+j] += n
	t.rowTotals[i] += n
	t.colTotals[j] += n
	t.total += n
}

// Set overwrites cell (i,j), maintaining marginals.
func (t *Table2) Set(i, j, n int) {
	old := t.counts[i*t.C+j]
	t.Add(i, j, n-old)
}

// Total returns the grand total n__.
func (t *Table2) Total() int { return t.total }

// Clone deep-copies the table.
func (t *Table2) Clone() *Table2 {
	out := &Table2{
		R: t.R, C: t.C, total: t.total,
		counts:    append([]int(nil), t.counts...),
		rowTotals: append([]int(nil), t.rowTotals...),
		colTotals: append([]int(nil), t.colTotals...),
	}
	return out
}

// MI estimates the mutual information (in nats) of the empirical joint
// distribution the table describes.
func (t *Table2) MI(est stats.Estimator) float64 {
	if t.total == 0 {
		return 0
	}
	hx := stats.EntropyCounts(t.rowTotals, t.total, est)
	hy := stats.EntropyCounts(t.colTotals, t.total, est)
	hxy := stats.EntropyCounts(t.counts, t.total, est)
	return hx + hy - hxy
}

// EntropyRows returns the entropy of the row variable's marginal.
func (t *Table2) EntropyRows(est stats.Estimator) float64 {
	return stats.EntropyCounts(t.rowTotals, t.total, est)
}

// EntropyCols returns the entropy of the column variable's marginal.
func (t *Table2) EntropyCols(est stats.Estimator) float64 {
	return stats.EntropyCounts(t.colTotals, t.total, est)
}

// Sampler draws random tables with fixed marginals using Patefield's
// algorithm (Applied Statistics 30(1), 1981, algorithm AS 159), matching
// the distribution induced by randomly shuffling one column of the data.
type Sampler struct {
	rowTotals []int
	colTotals []int
	total     int
	logFact   []float64 // logFact[k] = ln(k!)
}

// newSampler validates the marginals and precomputes log-factorials.
func newSampler(rowTotals, colTotals []int) (*Sampler, error) {
	if len(rowTotals) == 0 || len(colTotals) == 0 {
		return nil, fmt.Errorf("contingency: sampler needs non-empty marginals")
	}
	sumR, sumC := 0, 0
	for _, v := range rowTotals {
		if v < 0 {
			return nil, fmt.Errorf("contingency: negative row total %d", v)
		}
		sumR += v
	}
	for _, v := range colTotals {
		if v < 0 {
			return nil, fmt.Errorf("contingency: negative column total %d", v)
		}
		sumC += v
	}
	if sumR != sumC {
		return nil, fmt.Errorf("contingency: marginal sums disagree (%d vs %d)", sumR, sumC)
	}
	if sumR == 0 {
		return nil, fmt.Errorf("contingency: empty table")
	}
	s := &Sampler{
		rowTotals: append([]int(nil), rowTotals...),
		colTotals: append([]int(nil), colTotals...),
		total:     sumR,
		logFact:   make([]float64, sumR+1),
	}
	for k := 2; k <= sumR; k++ {
		lg, _ := math.Lgamma(float64(k) + 1)
		s.logFact[k] = lg
	}
	return s, nil
}

// NewSamplerFromTable builds a sampler with the marginals of t.
func NewSamplerFromTable(t *Table2) (*Sampler, error) {
	return newSampler(t.rowTotals, t.colTotals)
}

// Sample draws one random table with the sampler's marginals into dst,
// which must have matching shape. The draw consumes rng and is exact: the
// table's probability equals that of obtaining it by randomly permuting the
// column variable against the row variable.
func (s *Sampler) Sample(rng *rand.Rand, dst *Table2) error {
	nr, nc := len(s.rowTotals), len(s.colTotals)
	if dst.R != nr || dst.C != nc {
		return fmt.Errorf("contingency: destination shape %dx%d, want %dx%d", dst.R, dst.C, nr, nc)
	}
	// Reset dst.
	for i := range dst.counts {
		dst.counts[i] = 0
	}
	for i := range dst.rowTotals {
		dst.rowTotals[i] = 0
	}
	for j := range dst.colTotals {
		dst.colTotals[j] = 0
	}
	dst.total = 0

	lf := s.logFact
	jwork := append([]int(nil), s.colTotals[:nc-1]...)
	jc := s.total
	for l := 0; l < nr-1; l++ {
		ia := s.rowTotals[l] // remaining count in this row
		ic := jc             // remaining grand total
		jc -= ia
		for m := 0; m < nc-1; m++ {
			id := jwork[m] // remaining count in this column
			ie := ic
			ic -= id
			ib := ie - ia
			ii := ib - id
			if ie == 0 {
				// Nothing left to allocate: the rest of the row is zero.
				ia = 0
				break
			}
			nlm, err := s.sampleCell(rng, ia, ib, ic, id, ie, ii, lf)
			if err != nil {
				return err
			}
			if nlm > 0 {
				dst.Add(l, m, nlm)
			}
			ia -= nlm
			jwork[m] -= nlm
		}
		if ia > 0 {
			dst.Add(l, nc-1, ia) // last column takes the row remainder
		}
	}
	// Last row takes the column remainders.
	for m := 0; m < nc-1; m++ {
		if jwork[m] > 0 {
			dst.Add(nr-1, m, jwork[m])
		}
	}
	last := s.rowTotals[nr-1]
	for m := 0; m < nc-1; m++ {
		last -= jwork[m]
	}
	if last < 0 {
		return fmt.Errorf("contingency: internal error, negative remainder %d", last)
	}
	if last > 0 {
		dst.Add(nr-1, nc-1, last)
	}
	return nil
}

// sampleCell draws one cell value from the conditional (hypergeometric)
// distribution given the remaining marginals, per AS 159: start at the
// conditional mode and walk outward accumulating probability mass until the
// uniform draw is crossed.
func (s *Sampler) sampleCell(rng *rand.Rand, ia, ib, ic, id, ie, ii int, lf []float64) (int, error) {
	lo := ia + id - ie // max(0, lo) is the support minimum
	if lo < 0 {
		lo = 0
	}
	hi := ia
	if id < hi {
		hi = id
	}
	if lo == hi {
		return lo, nil // support is a single point
	}
	dummy := rng.Float64()
	for iter := 0; iter < 10000; iter++ {
		nlm := int(float64(ia)*float64(id)/float64(ie) + 0.5)
		if nlm < lo {
			nlm = lo
		}
		if nlm > hi {
			nlm = hi
		}
		x := math.Exp(lf[ia] + lf[ib] + lf[ic] + lf[id] -
			lf[ie] - lf[nlm] - lf[id-nlm] - lf[ia-nlm] - lf[ii+nlm])
		if x >= dummy {
			return nlm, nil
		}
		sumprb := x
		y := x
		nll := nlm
		lsp := false
		for !lsp {
			// Walk up from the mode.
			j := (id - nlm) * (ia - nlm)
			lsp = j == 0
			if !lsp {
				nlm++
				x = x * float64(j) / (float64(nlm) * float64(ii+nlm))
				sumprb += x
				if sumprb >= dummy {
					return nlm, nil
				}
			}
			// Walk down from the mode, alternating with the up-walk while
			// both directions remain.
			lsm := false
			for !lsm {
				j2 := nll * (ii + nll)
				lsm = j2 == 0
				if !lsm {
					nll--
					y = y * float64(j2) / (float64(id-nll) * float64(ia-nll))
					sumprb += y
					if sumprb >= dummy {
						return nll, nil
					}
					if !lsp {
						break // alternate back to the up-walk
					}
				}
			}
		}
		// Both walks exhausted without crossing (floating-point slack):
		// rescale the draw into the accumulated mass and retry.
		dummy = sumprb * rng.Float64()
	}
	return 0, fmt.Errorf("contingency: Patefield cell sampling failed to converge")
}
