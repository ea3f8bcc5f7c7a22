package cdd

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"hypdb/source"
)

// ScoreType selects the decomposable network score used by hill climbing.
type ScoreType int

const (
	// AIC is log-likelihood − |params| (Akaike).
	AIC ScoreType = iota
	// BIC is log-likelihood − |params|·ln(n)/2 (Schwarz).
	BIC
	// BDeu is the Bayesian Dirichlet equivalent uniform score.
	BDeu
)

// String implements fmt.Stringer.
func (s ScoreType) String() string {
	switch s {
	case AIC:
		return "AIC"
	case BIC:
		return "BIC"
	case BDeu:
		return "BDeu"
	default:
		return fmt.Sprintf("ScoreType(%d)", int(s))
	}
}

// Scorer computes per-node family scores score(X | Pa) with memoization.
// All three scores are decomposable, so hill climbing only rescores the
// families an operation touches.
type Scorer struct {
	rel  source.Relation
	typ  ScoreType
	ess  float64 // equivalent sample size for BDeu
	mu   sync.Mutex
	memo map[string]float64
}

// newScorer builds a scorer over rel. ess only matters for BDeu; zero means 1.
func newScorer(rel source.Relation, typ ScoreType, ess float64) *Scorer {
	if ess <= 0 {
		ess = 1
	}
	return &Scorer{rel: rel, typ: typ, ess: ess, memo: make(map[string]float64)}
}

// family scores node given the parent set.
func (s *Scorer) family(ctx context.Context, node string, parents []string) (float64, error) {
	key := familyKey(node, parents)
	s.mu.Lock()
	if v, ok := s.memo[key]; ok {
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()
	v, err := s.compute(ctx, node, parents)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.memo[key] = v
	s.mu.Unlock()
	return v, nil
}

func familyKey(node string, parents []string) string {
	ps := append([]string(nil), parents...)
	sort.Strings(ps)
	return node + "|" + strings.Join(ps, ",")
}

// compute scores a family from one tabulation over (parents..., node): its
// group-by over the parents yields each observed parent configuration's
// count n_pa and node cells n_{pa,x}, so one backend round trip serves
// every hill-climb rescore. Groups and their cells come in a fixed order,
// so the floating-point sums — and hence hill-climb tie-breaking — are the
// same whichever form the tabulation comes in.
func (s *Scorer) compute(ctx context.Context, node string, parents []string) (float64, error) {
	n, err := s.rel.NumRows(ctx)
	if err != nil {
		return 0, err
	}
	dc, err := source.Tabulate(ctx, s.rel, append(append([]string(nil), parents...), node))
	if err != nil {
		return 0, err
	}
	r := dc.Cards[len(parents)] // categories of the node
	groups := dc.GroupBy(len(parents))

	switch s.typ {
	case AIC, BIC:
		// LL = Σ_{pa,x} n_{pa,x}·ln(n_{pa,x}/n_pa).
		ll := 0.0
		for _, g := range groups {
			for _, c := range g.Counts {
				ll += float64(c) * math.Log(float64(c)/float64(g.Total))
			}
		}
		// Parameter count uses observed parent configurations (bnlearn
		// convention: unobserved configurations carry no parameters).
		params := float64(len(groups) * (r - 1))
		if s.typ == AIC {
			return ll - params, nil
		}
		return ll - params/2*math.Log(float64(n)), nil

	case BDeu:
		// Full q counts all parent configurations (product of cards), as
		// BDeu's prior is spread over all of them.
		q := 1
		for _, card := range dc.Cards[:len(parents)] {
			q *= card
		}
		aPa := s.ess / float64(q)
		aCell := s.ess / float64(q*r)
		lgAPa, _ := math.Lgamma(aPa)
		lgACell, _ := math.Lgamma(aCell)

		// Unobserved parent configurations contribute lnΓ(aPa)−lnΓ(aPa) = 0.
		score := 0.0
		for _, g := range groups {
			lg1, _ := math.Lgamma(aPa + float64(g.Total))
			score += lgAPa - lg1
			sort.Ints(g.Counts)
			for _, c := range g.Counts {
				lg2, _ := math.Lgamma(aCell + float64(c))
				score += lg2 - lgACell
			}
		}
		return score, nil
	}
	return 0, fmt.Errorf("cdd: unknown score type %v", s.typ)
}

// Total scores an entire parent map (node → parents).
func (s *Scorer) Total(ctx context.Context, parents map[string][]string) (float64, error) {
	// Deterministic order.
	nodes := make([]string, 0, len(parents))
	for n := range parents {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	total := 0.0
	for _, n := range nodes {
		v, err := s.family(ctx, n, parents[n])
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}
