package cdd

import (
	"context"
	"fmt"
	"sort"

	"hypdb/internal/dag"
	"hypdb/internal/hyperr"
	"hypdb/source"
)

// HillClimbConfig configures greedy score-based search.
type HillClimbConfig struct {
	// Score selects AIC, BIC or BDeu.
	Score ScoreType
	// ESS is the equivalent sample size for BDeu; zero means 1.
	ESS float64
	// MaxParents caps the in-degree; zero means DefaultMaxParents.
	MaxParents int
	// MaxIter caps the number of greedy steps; zero means DefaultMaxIter.
	MaxIter int
}

// DefaultMaxParents bounds the in-degree during hill climbing. The paper's
// RandomData DAGs have bounded fan-ins (Sec 4), so this does not restrict
// the search in practice.
const DefaultMaxParents = 6

// DefaultMaxIter bounds greedy steps.
const DefaultMaxIter = 500

// HillClimb learns a DAG by greedy local search over edge additions,
// deletions and reversals, the standard score-based approach the paper
// benchmarks as HC(BDE), HC(AIC) and HC(BIC) (Fig 5).
func HillClimb(ctx context.Context, rel source.Relation, attrs []string, cfg HillClimbConfig) (*dag.DAG, error) {
	if len(attrs) == 0 {
		attrs = rel.Attributes()
	}
	for _, a := range attrs {
		if !rel.HasAttribute(a) {
			return nil, fmt.Errorf("cdd: no column %q: %w", a, hyperr.ErrUnknownAttribute)
		}
	}
	maxParents := cfg.MaxParents
	if maxParents <= 0 {
		maxParents = DefaultMaxParents
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	scorer := newScorer(rel, cfg.Score, cfg.ESS)

	g, err := dag.New(attrs...)
	if err != nil {
		return nil, err
	}
	// family scores for the empty graph.
	family := make(map[string]float64, len(attrs))
	for _, a := range attrs {
		v, err := scorer.family(ctx, a, nil)
		if err != nil {
			return nil, err
		}
		family[a] = v
	}

	parentsOf := func(node string) []string {
		ps, _ := g.ParentNames(node)
		return ps
	}

	type operation struct {
		kind  string // "add", "del", "rev"
		u, v  string
		delta float64
	}

	for iter := 0; iter < maxIter; iter++ {
		// The greedy sweep scores O(|attrs|²) neighbor graphs per step;
		// cancellation is honored between steps.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := operation{delta: 1e-9} // require strict improvement
		for i, u := range attrs {
			for j, v := range attrs {
				if i == j {
					continue
				}
				ui, vi := g.Index(u), g.Index(v)
				switch {
				case !g.HasEdge(ui, vi) && !g.HasEdge(vi, ui):
					// Consider adding u → v.
					if len(g.Parents(vi)) >= maxParents {
						continue
					}
					if wouldCycle(g, ui, vi) {
						continue
					}
					newScore, err := scorer.family(ctx, v, append(parentsOf(v), u))
					if err != nil {
						return nil, err
					}
					if d := newScore - family[v]; d > best.delta {
						best = operation{kind: "add", u: u, v: v, delta: d}
					}
				case g.HasEdge(ui, vi):
					// Consider deleting u → v.
					newScore, err := scorer.family(ctx, v, removeString(parentsOf(v), u))
					if err != nil {
						return nil, err
					}
					if d := newScore - family[v]; d > best.delta {
						best = operation{kind: "del", u: u, v: v, delta: d}
					}
					// Consider reversing u → v to v → u.
					if len(g.Parents(ui)) >= maxParents {
						continue
					}
					if wouldCycleAfterReversal(g, ui, vi) {
						continue
					}
					newV, err := scorer.family(ctx, v, removeString(parentsOf(v), u))
					if err != nil {
						return nil, err
					}
					newU, err := scorer.family(ctx, u, append(parentsOf(u), v))
					if err != nil {
						return nil, err
					}
					if d := (newV - family[v]) + (newU - family[u]); d > best.delta {
						best = operation{kind: "rev", u: u, v: v, delta: d}
					}
				}
			}
		}
		if best.kind == "" {
			break // local optimum
		}
		// Apply the operation by rebuilding the graph (edge removal is not
		// part of the DAG API; rebuilding keeps the type's invariants).
		g, err = applyOp(g, attrs, best.kind, best.u, best.v)
		if err != nil {
			return nil, err
		}
		for _, node := range []string{best.u, best.v} {
			v, err := scorer.family(ctx, node, parentsOfGraph(g, node))
			if err != nil {
				return nil, err
			}
			family[node] = v
		}
	}
	return g, nil
}

func parentsOfGraph(g *dag.DAG, node string) []string {
	ps, _ := g.ParentNames(node)
	return ps
}

// wouldCycle reports whether adding u → v creates a directed cycle.
func wouldCycle(g *dag.DAG, u, v int) bool {
	// A cycle appears iff v already reaches u.
	return reaches(g, v, u)
}

// wouldCycleAfterReversal reports whether reversing u → v creates a cycle:
// after removing u → v, does u still reach v? If so, adding v → u cycles.
func wouldCycleAfterReversal(g *dag.DAG, u, v int) bool {
	// Search for a path u ⇒ v that avoids the direct edge u → v.
	seen := make([]bool, g.NumNodes())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Children(x) {
			if x == u && c == v {
				continue // skip the edge being reversed
			}
			if c == v {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

func reaches(g *dag.DAG, u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Children(x) {
			if c == v {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// applyOp rebuilds the DAG with one edge operation applied.
func applyOp(g *dag.DAG, attrs []string, kind, u, v string) (*dag.DAG, error) {
	out, err := dag.New(attrs...)
	if err != nil {
		return nil, err
	}
	for _, e := range g.Edges() {
		from, to := g.Name(e[0]), g.Name(e[1])
		if from == u && to == v {
			switch kind {
			case "del":
				continue
			case "rev":
				if err := out.AddEdge(v, u); err != nil {
					return nil, err
				}
				continue
			}
		}
		if err := out.AddEdge(from, to); err != nil {
			return nil, err
		}
	}
	if kind == "add" {
		if err := out.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func removeString(items []string, drop string) []string {
	out := make([]string, 0, len(items))
	for _, x := range items {
		if x != drop {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}
