// Package cdd implements the baseline causal-DAG discovery methods the
// paper compares against in Sec 7.4: constraint-based structure learning
// over Markov boundaries (Full Grow-Shrink, FGS [28], and IAMB [58]) and
// score-based greedy hill climbing with AIC, BIC and BDeu scores — the
// algorithms the paper ran through R's bnlearn. It also provides the
// parent-recovery F1 metric used in the Fig 5 quality comparison.
package cdd

import (
	"fmt"
	"sort"
)

// PDAG is a partially directed graph: the output of constraint-based
// structure learning, with a mix of directed and undirected edges.
type PDAG struct {
	names []string
	index map[string]int
	// directed[u][v] means u → v; undirected edges are stored in both
	// orientations of adj but neither direction of directed.
	directed map[int]map[int]bool
	adj      map[int]map[int]bool // symmetric adjacency (directed ∪ undirected)
}

// newPDAG creates an edgeless PDAG over names.
func newPDAG(names []string) (*PDAG, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cdd: PDAG needs at least one node")
	}
	p := &PDAG{
		names:    append([]string(nil), names...),
		index:    make(map[string]int, len(names)),
		directed: make(map[int]map[int]bool),
		adj:      make(map[int]map[int]bool),
	}
	for i, n := range names {
		if _, dup := p.index[n]; dup {
			return nil, fmt.Errorf("cdd: duplicate node %q", n)
		}
		p.index[n] = i
		p.directed[i] = make(map[int]bool)
		p.adj[i] = make(map[int]bool)
	}
	return p, nil
}

// Names returns the node names. Callers must not mutate.
func (p *PDAG) Names() []string { return p.names }

// Index returns the index of name, or -1.
func (p *PDAG) Index(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	return -1
}

// addUndirected inserts the undirected edge u–v.
func (p *PDAG) addUndirected(u, v int) {
	if u == v {
		return
	}
	p.adj[u][v] = true
	p.adj[v][u] = true
}

// orient turns the edge between u and v into u → v (adding it if absent).
func (p *PDAG) orient(u, v int) {
	if u == v {
		return
	}
	p.adj[u][v] = true
	p.adj[v][u] = true
	p.directed[u][v] = true
	delete(p.directed[v], u)
}

// adjacent reports whether u and v share any edge.
func (p *PDAG) adjacent(u, v int) bool { return p.adj[u][v] }

// hasDirected reports whether u → v.
func (p *PDAG) hasDirected(u, v int) bool { return p.directed[u][v] }

// isUndirected reports whether u–v exists without orientation.
func (p *PDAG) isUndirected(u, v int) bool {
	return p.adj[u][v] && !p.directed[u][v] && !p.directed[v][u]
}

// Neighbors returns all nodes adjacent to u, sorted.
func (p *PDAG) neighborsOf(u int) []int {
	out := make([]int, 0, len(p.adj[u]))
	for v := range p.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Parents returns the names of nodes with a directed edge into the named
// node. Undirected neighbors are not parents.
func (p *PDAG) Parents(name string) ([]string, error) {
	i := p.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("cdd: no node %q", name)
	}
	var out []string
	for u := range p.adj[i] {
		if p.directed[u][i] {
			out = append(out, p.names[u])
		}
	}
	sort.Strings(out)
	return out, nil
}

// NumEdges returns the total number of edges (directed + undirected).
func (p *PDAG) NumEdges() int {
	n := 0
	for u, m := range p.adj {
		for v := range m {
			if u < v {
				n++
			}
		}
	}
	return n
}

// directedPathExists reports a directed path u ⇒ v using only directed
// edges (for Meek rule R2 and acyclicity checks).
func (p *PDAG) directedPathExists(u, v int) bool {
	if u == v {
		return true
	}
	seen := make(map[int]bool)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range p.directed[x] {
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

// F1Score compares a predicted attribute set against the ground truth and
// returns precision, recall and F1 (1.0 across the board when both are
// empty — predicting "no parents" for a root is a perfect answer).
func F1Score(predicted, truth []string) (precision, recall, f1 float64) {
	if len(predicted) == 0 && len(truth) == 0 {
		return 1, 1, 1
	}
	truthSet := make(map[string]bool, len(truth))
	for _, x := range truth {
		truthSet[x] = true
	}
	tp := 0
	for _, x := range predicted {
		if truthSet[x] {
			tp++
		}
	}
	if len(predicted) > 0 {
		precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	} else if tp == 0 && len(predicted) > 0 {
		recall = 0
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}
