package cdd

import (
	"context"
	"fmt"
	"sort"

	"hypdb/internal/hyperr"
	"hypdb/internal/independence"
	"hypdb/internal/markov"
	"hypdb/source"
)

// BoundaryAlgorithm selects how constraint-based learners compute Markov
// boundaries.
type BoundaryAlgorithm int

const (
	// GrowShrinkBoundary uses the Grow-Shrink algorithm (FGS, [28]).
	GrowShrinkBoundary BoundaryAlgorithm = iota
	// IAMBBoundary uses Incremental Association ([58]).
	IAMBBoundary
)

// ConstraintConfig configures constraint-based structure learning.
type ConstraintConfig struct {
	// Tester decides conditional independence; required.
	Tester independence.Tester
	// Alpha is the significance level; zero means independence.DefaultAlpha.
	Alpha float64
	// Boundary selects the Markov-boundary learner.
	Boundary BoundaryAlgorithm
	// MaxSepSet caps the size of separating sets searched during edge
	// removal and collider detection; zero means no cap.
	MaxSepSet int
}

func (c ConstraintConfig) alpha() float64 {
	if c.Alpha <= 0 {
		return independence.DefaultAlpha
	}
	return c.Alpha
}

// LearnStructure runs the full constraint-based pipeline of the FGS/IAMB
// baselines: (1) learn the Markov boundary of every attribute, (2) resolve
// the underlying undirected graph by searching for separating sets inside
// boundaries, (3) orient v-structures using the recorded separating sets,
// and (4) propagate orientations with Meek's rules. The result is a PDAG;
// its directed edges define each node's predicted parents.
func LearnStructure(ctx context.Context, rel source.Relation, attrs []string, cfg ConstraintConfig) (*PDAG, error) {
	if cfg.Tester == nil {
		return nil, fmt.Errorf("cdd: nil tester")
	}
	if len(attrs) == 0 {
		attrs = rel.Attributes()
	}
	for _, a := range attrs {
		if !rel.HasAttribute(a) {
			return nil, fmt.Errorf("cdd: no column %q: %w", a, hyperr.ErrUnknownAttribute)
		}
	}

	// One shared cached entropy provider for the whole pipeline: boundary
	// learning, separating-set search and collider detection all test over
	// the same relation, so their entropy caches must accumulate rather
	// than reset per call.
	tester, err := independence.SharedProvider(ctx, cfg.Tester, rel)
	if err != nil {
		return nil, err
	}
	cfg.Tester = tester

	// Phase 1: Markov boundaries.
	mbs := make(map[string][]string, len(attrs))
	mcfg := markov.Config{Tester: cfg.Tester, Alpha: cfg.Alpha}
	for _, a := range attrs {
		cands := exclude(attrs, a)
		var (
			mb  []string
			err error
		)
		if cfg.Boundary == IAMBBoundary {
			mb, err = markov.IAMB(ctx, rel, a, cands, mcfg)
		} else {
			mb, err = markov.GrowShrink(ctx, rel, a, cands, mcfg)
		}
		if err != nil {
			return nil, err
		}
		mbs[a] = mb
	}

	p, err := newPDAG(attrs)
	if err != nil {
		return nil, err
	}

	// Phase 2: adjacency. X–Y is an edge iff Y ∈ MB(X), X ∈ MB(Y), and no
	// subset S of the smaller of MB(X)\{Y}, MB(Y)\{X} separates them.
	// Separating sets are recorded for phase 3.
	sepsets := make(map[[2]int][]string)
	alpha := cfg.alpha()
	for i, x := range attrs {
		for j := i + 1; j < len(attrs); j++ {
			y := attrs[j]
			if !contains(mbs[x], y) || !contains(mbs[y], x) {
				continue
			}
			base := smallerSet(exclude(mbs[x], y), exclude(mbs[y], x))
			sep, s, err := findSeparator(ctx, rel, cfg.Tester, x, y, base, alpha, cfg.MaxSepSet)
			if err != nil {
				return nil, err
			}
			if sep {
				sepsets[pairKey(i, j)] = s
			} else {
				p.addUndirected(i, j)
			}
		}
	}

	// Phase 3: v-structures. For every non-adjacent pair (X,Z) with common
	// neighbor Y: if Y is absent from their separating set and conditioning
	// on Y creates dependence (the collider signature, cf. condition (a) of
	// Prop 4.1), orient X → Y ← Z. Pairs that were screened out before
	// phase 2 (not in each other's Markov boundary) get their separating
	// set searched here on demand.
	for i := range attrs {
		for j := i + 1; j < len(attrs); j++ {
			if p.adjacent(i, j) {
				continue
			}
			common := commonNeighbors(p, i, j)
			if len(common) == 0 {
				continue
			}
			x, z := attrs[i], attrs[j]
			s, ok := sepsets[pairKey(i, j)]
			if !ok {
				base := smallerSet(exclude(mbs[x], z), exclude(mbs[z], x))
				sep, found, err := findSeparator(ctx, rel, cfg.Tester, x, z, base, alpha, cfg.MaxSepSet)
				if err != nil {
					return nil, err
				}
				if !sep {
					continue
				}
				s = found
				sepsets[pairKey(i, j)] = s
			}
			for _, y := range common {
				if contains(s, attrs[y]) {
					continue
				}
				// Verify X ⊥̸ Z | S ∪ {Y} before committing the collider.
				cond := append(append([]string(nil), s...), attrs[y])
				res, err := cfg.Tester.Test(ctx, rel, x, z, cond)
				if err != nil {
					return nil, err
				}
				if !independence.Decision(res, alpha) {
					p.orient(i, y)
					p.orient(j, y)
				}
			}
		}
	}

	// Phase 4: Meek rules.
	applyMeekRules(p)
	return p, nil
}

// findSeparator searches subsets of base (smallest first) for a set that
// renders x ⊥⊥ y; it returns whether one was found and the set itself.
func findSeparator(ctx context.Context, rel source.Relation, tester independence.Tester, x, y string, base []string, alpha float64, maxSize int) (bool, []string, error) {
	limit := len(base)
	if maxSize > 0 && maxSize < limit {
		limit = maxSize
	}
	for size := 0; size <= limit; size++ {
		found := false
		var sep []string
		err := forEachSubset(base, size, func(s []string) bool {
			res, err := tester.Test(ctx, rel, x, y, s)
			if err != nil {
				return false
			}
			if independence.Decision(res, alpha) {
				found = true
				sep = append([]string(nil), s...)
				return false // stop
			}
			return true
		})
		if err != nil {
			return false, nil, err
		}
		if found {
			return true, sep, nil
		}
	}
	return false, nil, nil
}

// forEachSubset enumerates the size-k subsets of items in lexicographic
// order, invoking f on each; f returning false stops the enumeration.
// An error inside f is surfaced by f storing it; here we keep the simple
// contract that f handles its own errors and signals stop.
func forEachSubset(items []string, k int, f func([]string) bool) error {
	if k > len(items) {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]string, k)
	for {
		for i, v := range idx {
			buf[i] = items[v]
		}
		if !f(buf) {
			return nil
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == len(items)-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// applyMeekRules propagates edge orientations (rules R1–R3) until a fixed
// point, never creating directed cycles.
func applyMeekRules(p *PDAG) {
	n := len(p.names)
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b || !p.isUndirected(a, b) {
					continue
				}
				// R1: c → a, a–b, c and b non-adjacent ⇒ a → b.
				r1 := false
				for c := 0; c < n; c++ {
					if c != b && p.hasDirected(c, a) && !p.adjacent(c, b) {
						r1 = true
						break
					}
				}
				if r1 {
					p.orient(a, b)
					changed = true
					continue
				}
				// R2: directed path a ⇒ b exists ⇒ a → b (avoids a cycle).
				if p.directedPathExists(a, b) && a != b {
					hasPath := false
					for c := range p.directed[a] {
						if c == b || p.directedPathExists(c, b) {
							hasPath = true
							break
						}
					}
					if hasPath {
						p.orient(a, b)
						changed = true
						continue
					}
				}
				// R3: a–c, a–d, c → b, d → b, c,d non-adjacent ⇒ a → b.
				r3 := false
				for c := 0; c < n && !r3; c++ {
					if c == a || c == b || !p.isUndirected(a, c) || !p.hasDirected(c, b) {
						continue
					}
					for d := c + 1; d < n; d++ {
						if d == a || d == b || !p.isUndirected(a, d) || !p.hasDirected(d, b) {
							continue
						}
						if !p.adjacent(c, d) {
							r3 = true
							break
						}
					}
				}
				if r3 {
					p.orient(a, b)
					changed = true
				}
			}
		}
	}
}

func pairKey(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

func commonNeighbors(p *PDAG, i, j int) []int {
	var out []int
	for _, y := range p.neighborsOf(i) {
		if p.adjacent(j, y) {
			out = append(out, y)
		}
	}
	return out
}

func exclude(items []string, drop string) []string {
	out := make([]string, 0, len(items))
	for _, x := range items {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

func contains(items []string, x string) bool {
	for _, v := range items {
		if v == x {
			return true
		}
	}
	return false
}

func smallerSet(a, b []string) []string {
	if len(a) <= len(b) {
		out := append([]string(nil), a...)
		sort.Strings(out)
		return out
	}
	out := append([]string(nil), b...)
	sort.Strings(out)
	return out
}
