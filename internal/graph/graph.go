// Package graph implements the weighted undirected affinity graph used by
// the RASA problem formulation (Section II-B of the paper).
//
// Vertices represent services and edge weights quantify the affinity
// between two services — in this reproduction, as in the paper's
// production deployment, the volume of traffic exchanged between them.
// The graph is the input to service partitioning and the structure the
// GCN classifier consumes.
package graph

import (
	"fmt"
	"sort"
)

// Half is one endpoint of an edge as seen from a vertex's adjacency list.
type Half struct {
	To     int     // neighbouring vertex
	Weight float64 // affinity weight of the edge
}

// Edge is an undirected weighted edge between two services.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a weighted undirected multigraph-free affinity graph over
// vertices 0..N()-1. Parallel edges are merged by AddEdge (weights
// accumulate). Self-loops are rejected: a service has no affinity with
// itself under the gained-affinity objective.
type Graph struct {
	adj   [][]Half
	edges []Edge
	// index maps an ordered vertex pair key to the position of its edge
	// in edges, so AddEdge can merge duplicates in O(1).
	index map[int64]int
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{
		adj:   make([][]Half, n),
		index: make(map[int64]int),
	}
}

func (g *Graph) key(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)*int64(len(g.adj)) + int64(v)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of distinct edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge adds an undirected edge between u and v with the given weight.
// If the edge already exists its weight is increased by weight instead of
// creating a parallel edge. Non-positive weights and self-loops are
// ignored: they cannot contribute gained affinity.
func (g *Graph) AddEdge(u, v int, weight float64) {
	if u == v || weight <= 0 {
		return
	}
	g.checkVertex(u)
	g.checkVertex(v)
	k := g.key(u, v)
	if i, ok := g.index[k]; ok {
		g.edges[i].Weight += weight
		w := g.edges[i].Weight
		for j := range g.adj[u] {
			if g.adj[u][j].To == v {
				g.adj[u][j].Weight = w
			}
		}
		for j := range g.adj[v] {
			if g.adj[v][j].To == u {
				g.adj[v][j].Weight = w
			}
		}
		return
	}
	g.index[k] = len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: weight})
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: weight})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: weight})
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(g.adj)))
	}
}

// SetEdge sets the weight of edge (u,v) to exactly weight, unlike
// AddEdge which accumulates. Setting a present edge to a non-positive
// weight zeroes it in place (the structural entry remains but it no
// longer contributes affinity anywhere: HasEdge, gained affinity, and
// cut/total weights all treat it as absent). Setting an absent edge to
// a positive weight creates it. Self-loops are ignored.
func (g *Graph) SetEdge(u, v int, weight float64) {
	if u == v {
		return
	}
	g.checkVertex(u)
	g.checkVertex(v)
	i, ok := g.index[g.key(u, v)]
	if !ok {
		g.AddEdge(u, v, weight)
		return
	}
	if weight < 0 {
		weight = 0
	}
	g.edges[i].Weight = weight
	for j := range g.adj[u] {
		if g.adj[u][j].To == v {
			g.adj[u][j].Weight = weight
		}
	}
	for j := range g.adj[v] {
		if g.adj[v][j].To == u {
			g.adj[v][j].Weight = weight
		}
	}
}

// Weight returns the weight of edge (u,v), or 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return 0
	}
	if i, ok := g.index[g.key(u, v)]; ok {
		return g.edges[i].Weight
	}
	return 0
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Half {
	g.checkVertex(u)
	return g.adj[u]
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return len(g.adj[u])
}

// Edges returns all edges. The returned slice is owned by the graph and
// must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// TotalWeight returns the total affinity of the graph: the sum of all
// edge weights. The paper normalizes this quantity to 1.0; callers that
// need normalized figures divide by this value.
func (g *Graph) TotalWeight() float64 {
	var t float64
	for _, e := range g.edges {
		t += e.Weight
	}
	return t
}

// TotalAffinity returns T(s): the sum of the weights of all edges
// incident to vertex s (Section IV-B2).
func (g *Graph) TotalAffinity(s int) float64 {
	g.checkVertex(s)
	var t float64
	for _, h := range g.adj[s] {
		t += h.Weight
	}
	return t
}

// TotalAffinities returns T(s) for every vertex in one pass.
func (g *Graph) TotalAffinities() []float64 {
	t := make([]float64, len(g.adj))
	for _, e := range g.edges {
		t[e.U] += e.Weight
		t[e.V] += e.Weight
	}
	return t
}

// RankByTotalAffinity returns the vertices sorted by decreasing total
// affinity, ties broken by vertex id for determinism.
func (g *Graph) RankByTotalAffinity() []int {
	t := g.TotalAffinities()
	order := make([]int, len(t))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if t[order[a]] != t[order[b]] {
			return t[order[a]] > t[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// Subgraph returns the induced subgraph over the given vertices together
// with the mapping from new vertex ids (0..len(vertices)-1) to the
// original ids (the vertices slice itself, copied). Duplicate vertices in
// the input are rejected.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	toNew := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		g.checkVertex(v)
		if _, dup := toNew[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in Subgraph", v))
		}
		toNew[v] = i
		orig[i] = v
	}
	sub := New(len(vertices))
	for _, e := range g.edges {
		u, okU := toNew[e.U]
		v, okV := toNew[e.V]
		if okU && okV {
			sub.AddEdge(u, v, e.Weight)
		}
	}
	return sub, orig
}

// BFSFrom performs a breadth-first search from each seed simultaneously
// (multi-source BFS) and returns, for every vertex, the index of the seed
// that first reached it, or -1 if unreachable from any seed. Seeds claim
// themselves. When two seeds reach a vertex in the same round, the seed
// appearing earlier in seeds wins, which keeps the traversal
// deterministic — the property the loss-minimization balanced
// partitioning heuristic (Section IV-B4) relies on for reproducibility.
func (g *Graph) BFSFrom(seeds []int) []int {
	owner := make([]int, len(g.adj))
	for i := range owner {
		owner[i] = -1
	}
	queue := make([]int, 0, len(g.adj))
	for i, s := range seeds {
		g.checkVertex(s)
		if owner[s] == -1 {
			owner[s] = i
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if owner[h.To] == -1 {
				owner[h.To] = owner[u]
				queue = append(queue, h.To)
			}
		}
	}
	return owner
}

// CutWeight returns the total weight of edges whose endpoints are in
// different parts under the given assignment part[v] (values < 0 are
// treated as a part of their own per vertex, i.e. unassigned vertices
// never share a part).
func (g *Graph) CutWeight(part []int) float64 {
	if len(part) != len(g.adj) {
		panic(fmt.Sprintf("graph: CutWeight part length %d, want %d", len(part), len(g.adj)))
	}
	var cut float64
	for _, e := range g.edges {
		pu, pv := part[e.U], part[e.V]
		if pu < 0 || pv < 0 || pu != pv {
			cut += e.Weight
		}
	}
	return cut
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for _, e := range g.edges {
		c.AddEdge(e.U, e.V, e.Weight)
	}
	return c
}
