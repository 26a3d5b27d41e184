package main

import (
	"sort"

	"probgraph/internal/graph"
)

// refGraph is the benchmark's own exact reference: sorted, deduplicated
// adjacency built without the program's graph package, and the
// degree-ordered orientation the counting references run over.
type refGraph struct {
	adj  [][]uint32 // full neighborhoods, ascending
	plus [][]uint32 // higher-(degree, id) neighbors, ascending
}

func newRefGraph(n int, edges []graph.Edge) *refGraph {
	adj := make([][]uint32, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for v := range adj {
		adj[v] = sortedUnique(adj[v])
	}
	return refFromAdj(adj)
}

func refFromModel(m *edgeModel) *refGraph {
	adj := make([][]uint32, len(m.adj))
	for v, set := range m.adj {
		for u := range set {
			adj[v] = append(adj[v], u)
		}
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	return refFromAdj(adj)
}

func refFromAdj(adj [][]uint32) *refGraph {
	less := func(a, b uint32) bool {
		da, db := len(adj[a]), len(adj[b])
		return da < db || (da == db && a < b)
	}
	plus := make([][]uint32, len(adj))
	for v, nv := range adj {
		for _, u := range nv {
			if less(uint32(v), u) {
				plus[v] = append(plus[v], u)
			}
		}
	}
	return &refGraph{adj: adj, plus: plus}
}

func sortedUnique(s []uint32) []uint32 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// common returns a ∩ b of two ascending lists.
func common(a, b []uint32, out []uint32) []uint32 {
	out = out[:0]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (r *refGraph) edges() int64 {
	var m int64
	for _, nv := range r.adj {
		m += int64(len(nv))
	}
	return m / 2
}

// triangles counts each triangle once.
func (r *refGraph) triangles() int64 {
	var t int64
	var buf []uint32
	for v, nv := range r.plus {
		_ = v
		for _, u := range nv {
			buf = common(nv, r.plus[u], buf)
			t += int64(len(buf))
		}
	}
	return t
}

// fourCliques counts each 4-clique once.
func (r *refGraph) fourCliques() int64 {
	var c int64
	var b1, b2 []uint32
	for _, nv := range r.plus {
		for _, u := range nv {
			b1 = common(nv, r.plus[u], b1)
			for _, w := range b1 {
				b2 = common(b1, r.plus[w], b2)
				c += int64(len(b2))
			}
		}
	}
	return c
}

// diamonds counts (non-induced) K4-minus-an-edge subgraphs: each edge
// (u, v) with c common neighbors is the chord of C(c, 2) diamonds.
func (r *refGraph) diamonds() int64 {
	var d int64
	var buf []uint32
	for u, nu := range r.adj {
		for _, v := range nu {
			if v <= uint32(u) {
				continue
			}
			buf = common(nu, r.adj[v], buf)
			c := int64(len(buf))
			d += c * (c - 1) / 2
		}
	}
	return d
}

// localTriangles counts the triangles through v.
func (r *refGraph) localTriangles(v uint32) int64 {
	var t int64
	var buf []uint32
	nv := r.adj[v]
	for _, u := range nv {
		buf = common(nv, r.adj[u], buf)
		t += int64(len(buf))
	}
	return t / 2
}
