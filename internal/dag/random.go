package dag

import (
	"fmt"
	"math"
	"math/rand"
)

// RandomDAG draws an Erdős–Rényi DAG: nodes are placed in a random
// topological order and each of the C(n,2) forward pairs becomes an edge
// independently with probability p. Node names are X0..X{n−1}.
//
// This is the RandomData generator of Sec 7.1 ("we first generated a set of
// random DAGs using the Erdős–Rényi model").
func RandomDAG(rng *rand.Rand, n int, p float64) (*DAG, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: RandomDAG with %d nodes", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("dag: RandomDAG with edge probability %v", p)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("X%d", i)
	}
	g := MustNew(names...)
	order := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				// order[i] precedes order[j], so this edge cannot cycle.
				if err := g.addEdgeIdx(order[i], order[j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// RandomDAGAvgDegree draws an Erdős–Rényi DAG whose expected average degree
// (in+out) is avgDegree: p = avgDegree·n / (2·C(n,2)) = avgDegree/(n−1).
// The paper's RandomData uses DAGs whose expected parent-set sizes keep
// Markov boundaries small ("bounded fan-ins", Sec 4).
func RandomDAGAvgDegree(rng *rand.Rand, n int, avgDegree float64) (*DAG, error) {
	if n < 2 {
		return RandomDAG(rng, n, 0)
	}
	p := avgDegree / float64(n-1)
	if p > 1 {
		p = 1
	}
	return RandomDAG(rng, n, p)
}

// randGamma samples Gamma(alpha, 1) via Marsaglia–Tsang, with the boosting
// trick for alpha < 1. It backs the Dirichlet draws of RandomCPTs.
func randGamma(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return randGamma(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// randDirichlet fills dst with one draw from Dirichlet(alpha,...,alpha).
func randDirichlet(rng *rand.Rand, alpha float64, dst []float64) {
	sum := 0.0
	for i := range dst {
		g := randGamma(rng, alpha)
		dst[i] = g
		sum += g
	}
	if sum == 0 {
		// Vanishingly unlikely; fall back to uniform.
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}
