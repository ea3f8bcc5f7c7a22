// Package dag implements causal DAGs (Sec 2 and Appendix 10.1 of the
// paper): the graph type itself, d-separation, graph-side Markov
// boundaries, Erdős–Rényi random DAG generation and forward sampling from
// CPT-parameterized networks. The sampling machinery replaces the R catnet
// package the paper used to generate RandomData (Sec 7.1): causal DAGs
// admit the same factorized distribution as Bayesian networks.
package dag

import (
	"fmt"
	"sort"
)

// DAG is a directed acyclic graph over named nodes.
type DAG struct {
	names    []string
	index    map[string]int
	parents  [][]int // sorted
	children [][]int // sorted
}

// New creates an edgeless DAG over the given node names.
func New(names ...string) (*DAG, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dag: need at least one node")
	}
	g := &DAG{
		names:    append([]string(nil), names...),
		index:    make(map[string]int, len(names)),
		parents:  make([][]int, len(names)),
		children: make([][]int, len(names)),
	}
	for i, n := range names {
		if _, dup := g.index[n]; dup {
			return nil, fmt.Errorf("dag: duplicate node %q", n)
		}
		g.index[n] = i
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(names ...string) *DAG {
	g, err := New(names...)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns the node count.
func (g *DAG) NumNodes() int { return len(g.names) }

// Names returns the node names in index order. Callers must not mutate.
func (g *DAG) Names() []string { return g.names }

// Name returns the name of node i.
func (g *DAG) Name(i int) string { return g.names[i] }

// Index returns the index of the named node, or -1.
func (g *DAG) Index(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	return -1
}

// AddEdge inserts u → v, rejecting self-loops, duplicates and cycles.
func (g *DAG) AddEdge(u, v string) error {
	ui, vi := g.Index(u), g.Index(v)
	if ui < 0 {
		return fmt.Errorf("dag: no node %q", u)
	}
	if vi < 0 {
		return fmt.Errorf("dag: no node %q", v)
	}
	return g.addEdgeIdx(ui, vi)
}

// addEdgeIdx inserts an edge by node index.
func (g *DAG) addEdgeIdx(u, v int) error {
	if u == v {
		return fmt.Errorf("dag: self-loop on %q", g.names[u])
	}
	for _, c := range g.children[u] {
		if c == v {
			return fmt.Errorf("dag: duplicate edge %q -> %q", g.names[u], g.names[v])
		}
	}
	if g.reaches(v, u) {
		return fmt.Errorf("dag: edge %q -> %q would create a cycle", g.names[u], g.names[v])
	}
	g.children[u] = insertSorted(g.children[u], v)
	g.parents[v] = insertSorted(g.parents[v], u)
	return nil
}

// MustAddEdge is AddEdge that panics on error; for statically known graphs.
func (g *DAG) MustAddEdge(u, v string) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// reaches reports whether there is a directed path from u to v.
func (g *DAG) reaches(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(g.names))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.children[x] {
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

// Parents returns the parent indices of node i (PA_X). Callers must not
// mutate.
func (g *DAG) Parents(i int) []int { return g.parents[i] }

// Children returns the child indices of node i. Callers must not mutate.
func (g *DAG) Children(i int) []int { return g.children[i] }

// ParentNames returns the parent names of the named node.
func (g *DAG) ParentNames(name string) ([]string, error) {
	i := g.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("dag: no node %q", name)
	}
	out := make([]string, 0, len(g.parents[i]))
	for _, p := range g.parents[i] {
		out = append(out, g.names[p])
	}
	return out, nil
}

// NumEdges returns the edge count.
func (g *DAG) NumEdges() int {
	n := 0
	for _, c := range g.children {
		n += len(c)
	}
	return n
}

// Edges returns all edges as [from, to] index pairs in deterministic order.
func (g *DAG) Edges() [][2]int {
	var out [][2]int
	for u, cs := range g.children {
		for _, v := range cs {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// HasEdge reports whether u → v exists.
func (g *DAG) HasEdge(u, v int) bool {
	i := sort.SearchInts(g.children[u], v)
	return i < len(g.children[u]) && g.children[u][i] == v
}

// Neighbors reports whether u and v are adjacent (in either direction).
func (g *DAG) Neighbors(u, v int) bool { return g.HasEdge(u, v) || g.HasEdge(v, u) }

// topoOrder returns a topological order of the node indices.
func (g *DAG) topoOrder() []int {
	n := len(g.names)
	indeg := make([]int, n)
	for i := range g.parents {
		indeg[i] = len(g.parents[i])
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	out := make([]int, 0, n)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		out = append(out, x)
		for _, c := range g.children[x] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return out
}

// ancestors returns the set of (proper) ancestors of the given nodes,
// including the nodes themselves.
func (g *DAG) ancestors(nodes []int) map[int]bool {
	out := make(map[int]bool)
	stack := append([]int(nil), nodes...)
	for _, x := range nodes {
		out[x] = true
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.parents[x] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// markovBoundary returns the indices of the Markov boundary of node i: its
// parents, children and parents of children (Prop 2.5 of the paper).
func (g *DAG) markovBoundary(i int) []int {
	set := make(map[int]bool)
	for _, p := range g.parents[i] {
		set[p] = true
	}
	for _, c := range g.children[i] {
		set[c] = true
		for _, sp := range g.parents[c] {
			if sp != i {
				set[sp] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// MarkovBoundaryNames is markovBoundary by node name.
func (g *DAG) MarkovBoundaryNames(name string) ([]string, error) {
	i := g.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("dag: no node %q", name)
	}
	idx := g.markovBoundary(i)
	out := make([]string, len(idx))
	for j, x := range idx {
		out[j] = g.names[x]
	}
	return out, nil
}

// Clone deep-copies the DAG.
func (g *DAG) Clone() *DAG {
	out := MustNew(g.names...)
	for u, cs := range g.children {
		for _, v := range cs {
			out.children[u] = append([]int(nil), g.children[u]...)
			_ = v
		}
	}
	for i := range g.parents {
		out.parents[i] = append([]int(nil), g.parents[i]...)
		out.children[i] = append([]int(nil), g.children[i]...)
	}
	return out
}
