package dag

import (
	"context"

	"fmt"

	"hypdb/internal/independence"
	"hypdb/source"
)

// dSeparated reports whether every node of xs is d-separated from every
// node of ys given the evidence set zs (X ⊥⊥_d Y | Z, Appendix 10.1). It
// uses the standard active-trail reachability algorithm (Bayes-ball).
func (g *DAG) dSeparated(xs, ys, zs []int) bool {
	inZ := make([]bool, len(g.names))
	for _, z := range zs {
		inZ[z] = true
	}
	inY := make([]bool, len(g.names))
	for _, y := range ys {
		inY[y] = true
	}
	// A node "unblocks" a collider when it or one of its descendants is in
	// Z, i.e. when it is an ancestor of Z.
	anc := g.ancestors(zs)

	for _, x := range xs {
		if inZ[x] {
			continue // conditioning on x blocks all trails through it
		}
		if g.reachableHitsY(x, inZ, anc, inY) {
			return false
		}
	}
	return true
}

// DSeparatedNames is dSeparated over node names.
func (g *DAG) DSeparatedNames(xs, ys, zs []string) (bool, error) {
	xi, err := g.indices(xs)
	if err != nil {
		return false, err
	}
	yi, err := g.indices(ys)
	if err != nil {
		return false, err
	}
	zi, err := g.indices(zs)
	if err != nil {
		return false, err
	}
	return g.dSeparated(xi, yi, zi), nil
}

func (g *DAG) indices(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = g.Index(n)
		if out[i] < 0 {
			return nil, fmt.Errorf("dag: no node %q", n)
		}
	}
	return out, nil
}

// reachableHitsY runs the active-trail BFS from x and reports whether any
// node of Y is reachable. Search states are (node, direction): direction
// "up" means the trail arrived at the node from one of its children (the
// trail points into the node's parents side), "down" means it arrived from
// a parent.
func (g *DAG) reachableHitsY(x int, inZ []bool, ancZ map[int]bool, inY []bool) bool {
	const (
		up   = 0 // arrived from a child (can continue to parents and children)
		down = 1 // arrived from a parent (collider rules apply)
	)
	type state struct{ node, dir int }
	visited := make(map[state]bool)
	queue := []state{{x, up}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if visited[s] {
			continue
		}
		visited[s] = true
		y, d := s.node, s.dir
		if !inZ[y] && inY[y] && y != x {
			return true
		}
		if d == up && !inZ[y] {
			for _, p := range g.parents[y] {
				queue = append(queue, state{p, up})
			}
			for _, c := range g.children[y] {
				queue = append(queue, state{c, down})
			}
		} else if d == down {
			if !inZ[y] {
				// Chain: continue downstream.
				for _, c := range g.children[y] {
					queue = append(queue, state{c, down})
				}
			}
			if ancZ[y] {
				// Collider at y is unblocked (y or a descendant is in Z):
				// the trail may turn back up into y's parents.
				for _, p := range g.parents[y] {
					queue = append(queue, state{p, up})
				}
			}
		}
	}
	return false
}

// Oracle is an independence.Tester backed by d-separation on a known DAG.
// It answers exactly (p-value 0 or 1) and ignores the data argument; it
// exists so that discovery algorithms (Grow-Shrink, IAMB, CD) can be tested
// against ground truth without statistical noise, and to label the
// ground-truth independence relations for the Fig 8(a) accuracy experiment.
type Oracle struct {
	G *DAG
}

// Test implements independence.Tester.
func (o Oracle) Test(_ context.Context, _ source.Relation, x, y string, z []string) (independence.Result, error) {
	sep, err := o.G.DSeparatedNames([]string{x}, []string{y}, z)
	if err != nil {
		return independence.Result{}, err
	}
	if sep {
		return independence.Result{MI: 0, PValue: 1, Method: "d-separation"}, nil
	}
	return independence.Result{MI: 1, PValue: 0, Method: "d-separation"}, nil
}
