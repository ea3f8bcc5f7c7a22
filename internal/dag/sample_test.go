package dag

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"hypdb/internal/independence"
	"hypdb/internal/stats"
	"hypdb/source/mem"
)

func TestNewBayesNetValidation(t *testing.T) {
	g := MustNew("A", "B")
	g.MustAddEdge("A", "B")
	// Wrong CPT length.
	if _, err := NewBayesNet(g, []int{2, 2}, [][]float64{{0.5, 0.5}, {0.5, 0.5}}); err == nil {
		t.Error("short CPT accepted (B needs 2 rows × 2 cols)")
	}
	// Row not summing to 1.
	if _, err := NewBayesNet(g, []int{2, 2}, [][]float64{{0.5, 0.5}, {0.9, 0.9, 0.1, 0.1}}); err == nil {
		t.Error("non-normalized CPT row accepted")
	}
	// Negative probability.
	if _, err := NewBayesNet(g, []int{2, 2}, [][]float64{{1.5, -0.5}, {0.5, 0.5, 0.5, 0.5}}); err == nil {
		t.Error("negative probability accepted")
	}
	// Card < 2.
	if _, err := NewBayesNet(g, []int{1, 2}, [][]float64{{1}, {0.5, 0.5}}); err == nil {
		t.Error("unary variable accepted")
	}
	// Valid.
	bn, err := NewBayesNet(g, []int{2, 2}, [][]float64{{0.3, 0.7}, {0.9, 0.1, 0.2, 0.8}})
	if err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}
	if bn.G != g {
		t.Error("graph not retained")
	}
}

func TestSampleMarginals(t *testing.T) {
	// A → B with known CPTs; sampled marginals must match.
	g := MustNew("A", "B")
	g.MustAddEdge("A", "B")
	bn, err := NewBayesNet(g, []int{2, 2}, [][]float64{
		{0.3, 0.7},           // P(A)
		{0.9, 0.1, 0.2, 0.8}, // P(B|A=0), P(B|A=1)
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(1)), 20000)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tab.Float("A")
	b, _ := tab.Float("B")
	meanA, _ := stats.MeanVariance(a)
	if math.Abs(meanA-0.7) > 0.02 {
		t.Errorf("P(A=1) ≈ %v, want 0.7", meanA)
	}
	// P(B=1) = 0.3·0.1 + 0.7·0.8 = 0.59.
	meanB, _ := stats.MeanVariance(b)
	if math.Abs(meanB-0.59) > 0.02 {
		t.Errorf("P(B=1) ≈ %v, want 0.59", meanB)
	}
	// P(B=1|A=1) ≈ 0.8.
	n11, n1 := 0, 0
	for i := range a {
		if a[i] == 1 {
			n1++
			if b[i] == 1 {
				n11++
			}
		}
	}
	if got := float64(n11) / float64(n1); math.Abs(got-0.8) > 0.03 {
		t.Errorf("P(B=1|A=1) ≈ %v, want 0.8", got)
	}
}

func TestSampleValidatesN(t *testing.T) {
	g := MustNew("A")
	bn, err := NewBayesNet(g, []int{2}, [][]float64{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bn.Sample(rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomBayesNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := RandomDAG(rng, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := RandomBayesNet(rng, g, 2, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, card := range bn.Cards {
		if card < 2 || card > 5 {
			t.Errorf("node %d card = %d outside [2,5]", i, card)
		}
	}
	tab, err := bn.Sample(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 500 || tab.NumCols() != 8 {
		t.Errorf("sample shape %dx%d, want 500x8", tab.NumRows(), tab.NumCols())
	}
	if _, err := RandomBayesNet(rng, g, 1, 5, 0.5); err == nil {
		t.Error("minCard=1 accepted")
	}
	if _, err := RandomBayesNet(rng, g, 2, 5, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

// Sampling respects the DAG's independence structure: in a collider
// A → B ← C, A and C are independent in the data but dependent given B.
func TestSampleColliderFaithfulness(t *testing.T) {
	g := MustNew("A", "B", "C")
	g.MustAddEdge("A", "B")
	g.MustAddEdge("C", "B")
	// XOR-ish CPT to make the collider dependence strong.
	bn, err := NewBayesNet(g, []int{2, 2, 2}, [][]float64{
		{0.5, 0.5},
		{0.9, 0.1, 0.1, 0.9, 0.1, 0.9, 0.9, 0.1}, // B ≈ A XOR C
		{0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rand.New(rand.NewSource(3)), 5000)
	if err != nil {
		t.Fatal(err)
	}
	chi := independence.ChiSquare{Est: stats.MillerMadow}
	marg, err := chi.Test(context.Background(), mem.New(tab), "A", "C", nil)
	if err != nil {
		t.Fatal(err)
	}
	if marg.PValue < 0.01 {
		t.Errorf("A ⊥ C should hold marginally: p = %v", marg.PValue)
	}
	cond, err := chi.Test(context.Background(), mem.New(tab), "A", "C", []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if cond.PValue > 0.01 {
		t.Errorf("A ⊥̸ C | B should hold (Berkson): p = %v", cond.PValue)
	}
}

// Ground-truth agreement at scale: for a random net, every pairwise
// d-separation statement should be matched by the chi-square verdict on a
// large sample (modulo rare statistical errors, so we demand ≥80%
// agreement).
func TestSampleAgreesWithDSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := RandomDAG(rng, 6, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := RandomBayesNet(rng, g, 2, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bn.Sample(rng, 20000)
	if err != nil {
		t.Fatal(err)
	}
	chi := independence.ChiSquare{Est: stats.MillerMadow}
	agree, total := 0, 0
	for x := 0; x < 6; x++ {
		for y := x + 1; y < 6; y++ {
			total++
			sep := g.dSeparated([]int{x}, []int{y}, nil)
			res, err := chi.Test(context.Background(), mem.New(tab), g.Name(x), g.Name(y), nil)
			if err != nil {
				t.Fatal(err)
			}
			if independence.Decision(res, 0.01) == sep {
				agree++
			}
		}
	}
	if float64(agree) < 0.8*float64(total) {
		t.Errorf("only %d/%d pairwise verdicts agree with d-separation", agree, total)
	}
}

func TestTrueParents(t *testing.T) {
	g := MustNew("A", "B", "C")
	g.MustAddEdge("A", "C")
	g.MustAddEdge("B", "C")
	bn, err := RandomBayesNet(rand.New(rand.NewSource(5)), g, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := bn.TrueParents("C")
	if err != nil {
		t.Fatal(err)
	}
	if !sameStringSet(parents, []string{"A", "B"}) {
		t.Errorf("TrueParents(C) = %v", parents)
	}
}
