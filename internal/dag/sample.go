package dag

import (
	"fmt"
	"math/rand"
	"strconv"

	"hypdb/internal/dataset"
)

// BayesNet parameterizes a DAG with conditional probability tables, giving
// the factorized distribution Pr(A) = Π Pr(X | PA_X). It replaces the R
// catnet package the paper used to draw RandomData samples: "causal DAGs
// admit the same factorized distribution as Bayesian networks" (Sec 7.1).
type BayesNet struct {
	G     *DAG
	Cards []int // number of categories per node
	// CPTs[i] is the conditional distribution of node i: a row-major table
	// of size Π(parent cards) × Cards[i]; row r holds Pr(X_i | parent
	// configuration r), where r enumerates parent configurations with the
	// first parent varying slowest.
	CPTs [][]float64
}

// NewBayesNet validates shapes and returns the network.
func NewBayesNet(g *DAG, cards []int, cpts [][]float64) (*BayesNet, error) {
	if len(cards) != g.NumNodes() || len(cpts) != g.NumNodes() {
		return nil, fmt.Errorf("dag: BayesNet needs %d cards and CPTs, got %d and %d",
			g.NumNodes(), len(cards), len(cpts))
	}
	for i, card := range cards {
		if card < 2 {
			return nil, fmt.Errorf("dag: node %q has %d categories, need ≥2", g.Name(i), card)
		}
		rows := 1
		for _, p := range g.Parents(i) {
			rows *= cards[p]
		}
		if len(cpts[i]) != rows*card {
			return nil, fmt.Errorf("dag: node %q CPT has %d entries, want %d",
				g.Name(i), len(cpts[i]), rows*card)
		}
		for r := 0; r < rows; r++ {
			sum := 0.0
			for c := 0; c < card; c++ {
				v := cpts[i][r*card+c]
				if v < 0 {
					return nil, fmt.Errorf("dag: node %q CPT row %d has negative probability", g.Name(i), r)
				}
				sum += v
			}
			if sum < 0.999 || sum > 1.001 {
				return nil, fmt.Errorf("dag: node %q CPT row %d sums to %v", g.Name(i), r, sum)
			}
		}
	}
	return &BayesNet{G: g, Cards: cards, CPTs: cpts}, nil
}

// RandomBayesNet equips g with random CPTs. Each node's category count is
// drawn uniformly from [minCard, maxCard], and each CPT row is a
// Dirichlet(alpha) draw; small alpha (e.g. 0.5) yields sharp, learnable
// dependencies, large alpha approaches uniform noise.
func RandomBayesNet(rng *rand.Rand, g *DAG, minCard, maxCard int, alpha float64) (*BayesNet, error) {
	if minCard < 2 || maxCard < minCard {
		return nil, fmt.Errorf("dag: invalid category range [%d,%d]", minCard, maxCard)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("dag: Dirichlet alpha must be positive, got %v", alpha)
	}
	n := g.NumNodes()
	cards := make([]int, n)
	for i := range cards {
		cards[i] = minCard + rng.Intn(maxCard-minCard+1)
	}
	cpts := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows := 1
		for _, p := range g.Parents(i) {
			rows *= cards[p]
		}
		cpt := make([]float64, rows*cards[i])
		for r := 0; r < rows; r++ {
			randDirichlet(rng, alpha, cpt[r*cards[i]:(r+1)*cards[i]])
		}
		cpts[i] = cpt
	}
	return NewBayesNet(g, cards, cpts)
}

// parentRow computes the CPT row index of node i for the given current
// assignment (first parent varies slowest).
func (bn *BayesNet) parentRow(i int, assignment []int) int {
	row := 0
	for _, p := range bn.G.Parents(i) {
		row = row*bn.Cards[p] + assignment[p]
	}
	return row
}

// SampleRow draws one joint assignment into dst (length NumNodes), visiting
// nodes in the given topological order.
func (bn *BayesNet) sampleRow(rng *rand.Rand, topo []int, dst []int) {
	for _, i := range topo {
		card := bn.Cards[i]
		row := bn.parentRow(i, dst)
		u := rng.Float64()
		acc := 0.0
		v := card - 1 // fallback to the last category on rounding slack
		for c := 0; c < card; c++ {
			acc += bn.CPTs[i][row*card+c]
			if u < acc {
				v = c
				break
			}
		}
		dst[i] = v
	}
}

// Sample forward-samples n rows into a dataset whose columns are the node
// names and whose values are category indices rendered as decimal strings.
func (bn *BayesNet) Sample(rng *rand.Rand, n int) (*dataset.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: sampling %d rows", n)
	}
	topo := bn.G.topoOrder()
	numNodes := bn.G.NumNodes()

	// Pre-render category labels once.
	labels := make([][]string, numNodes)
	for i := 0; i < numNodes; i++ {
		labels[i] = make([]string, bn.Cards[i])
		for c := 0; c < bn.Cards[i]; c++ {
			labels[i][c] = strconv.Itoa(c)
		}
	}

	cols := make([][]int32, numNodes)
	for i := range cols {
		cols[i] = make([]int32, n)
	}
	assignment := make([]int, numNodes)
	for r := 0; r < n; r++ {
		bn.sampleRow(rng, topo, assignment)
		for i, v := range assignment {
			cols[i][r] = int32(v)
		}
	}
	dcols := make([]*dataset.Column, numNodes)
	for i := 0; i < numNodes; i++ {
		c, err := dataset.NewColumnFromCodes(bn.G.Name(i), cols[i], labels[i])
		if err != nil {
			return nil, err
		}
		dcols[i] = c
	}
	return dataset.New(dcols...)
}

// TrueParents returns the ground-truth parent names of a node, the target
// the CD algorithm and the baseline CDD methods are scored against in the
// Fig 5 experiments.
func (bn *BayesNet) TrueParents(name string) ([]string, error) {
	return bn.G.ParentNames(name)
}
