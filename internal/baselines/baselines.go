// Package baselines implements the competing approximate triangle-count
// schemes the evaluation compares ProbGraph against (§VIII-C/D, Fig. 6):
// the theoretically grounded Doulion (edge sampling) and Colorful TC
// (color sparsification), and the guarantee-free heuristics Reduced
// Execution, Partial Graph Processing, and two Auto-Approximation
// variants built on a deliberately faithful vertex-centric abstraction
// (whose per-message overhead is exactly why the paper measures them as
// slower than tuned exact baselines).
package baselines

import (
	"context"
	"math/rand/v2"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/mining"
	"probgraph/internal/par"
)

// DoulionTC estimates TC by keeping every edge independently with
// probability p, counting triangles exactly on the sparsified graph, and
// rescaling by 1/p³ (Tsourakakis et al.). Asymptotically unbiased and
// consistent, no exponential bounds (Table VII).
func DoulionTC(g *graph.Graph, p float64, seed uint64, workers int) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return float64(mining.ExactTC(g.Orient(workers), workers))
	}
	r := rand.New(rand.NewPCG(seed, 0xd0041107))
	var kept []graph.Edge
	g.Edges(func(u, v uint32) {
		if r.Float64() < p {
			kept = append(kept, graph.Edge{U: u, V: v})
		}
	})
	sub, err := graph.FromEdges(g.NumVertices(), kept)
	if err != nil {
		// Kept edges are a subset of a valid graph; this cannot happen.
		panic("baselines: doulion sparsification: " + err.Error())
	}
	tc := mining.ExactTC(sub.Orient(workers), workers)
	return float64(tc) / (p * p * p)
}

// ColorfulTC estimates TC with the colorful sparsification of Pagh &
// Tsourakakis: vertices get a uniform color in [N]; only monochromatic
// edges survive; a triangle survives iff all three corners share a color
// (probability 1/N²), so the sparsified count is rescaled by N².
func ColorfulTC(g *graph.Graph, colors int, seed uint64, workers int) float64 {
	if colors <= 1 {
		return float64(mining.ExactTC(g.Orient(workers), workers))
	}
	r := rand.New(rand.NewPCG(seed, 0xc0102f01))
	color := make([]uint16, g.NumVertices())
	for i := range color {
		color[i] = uint16(r.IntN(colors))
	}
	var kept []graph.Edge
	g.Edges(func(u, v uint32) {
		if color[u] == color[v] {
			kept = append(kept, graph.Edge{U: u, V: v})
		}
	})
	sub, err := graph.FromEdges(g.NumVertices(), kept)
	if err != nil {
		panic("baselines: colorful sparsification: " + err.Error())
	}
	tc := mining.ExactTC(sub.Orient(workers), workers)
	return float64(tc) * float64(colors) * float64(colors)
}

// ReducedExecutionTC is the "Reduced Execution" heuristic of Singh &
// Nasre: run only a random fraction of the outer node-iterator loop and
// extrapolate linearly. No accuracy guarantees.
func ReducedExecutionTC(o *graph.Oriented, frac float64, seed uint64, workers int) float64 {
	n := o.NumVertices()
	if n == 0 {
		return 0
	}
	if frac >= 1 {
		return float64(mining.ExactTC(o, workers))
	}
	if frac <= 0 {
		return 0
	}
	r := rand.New(rand.NewPCG(seed, 0x4ed0ce))
	perm := r.Perm(n)
	cut := int(frac * float64(n))
	if cut < 1 {
		cut = 1
	}
	picked := perm[:cut]
	// An uncancellable context: Sum cannot fail.
	sum, _ := par.Sum(context.Background(), len(picked), workers, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			v := uint32(picked[i])
			nv := o.NPlus(v)
			for _, u := range nv {
				s += int64(graph.IntersectCount(nv, o.NPlus(u)))
			}
		}
		return s
	})
	return float64(sum) * float64(n) / float64(cut)
}

// PartialProcessingTC is the "Partial Graph Processing" heuristic: each
// vertex processes only a random fraction of its oriented neighborhood.
// A triangle needs both corners in the apex's sample and the closing
// vertex in the middle corner's sample, so the count is rescaled by
// 1/frac³. No accuracy guarantees.
func PartialProcessingTC(o *graph.Oriented, frac float64, seed uint64, workers int) float64 {
	n := o.NumVertices()
	if n == 0 {
		return 0
	}
	if frac >= 1 {
		return float64(mining.ExactTC(o, workers))
	}
	if frac <= 0 {
		return 0
	}
	// Sample each oriented adjacency list once, up front (deterministic
	// per seed), keeping lists sorted.
	sampled := make([][]uint32, n)
	par.For(n, workers, func(v int) {
		nv := o.NPlus(uint32(v))
		r := rand.New(rand.NewPCG(seed, uint64(v)))
		var keep []uint32
		for _, u := range nv {
			if r.Float64() < frac {
				keep = append(keep, u)
			}
		}
		sampled[v] = keep
	})
	// An uncancellable context: Sum cannot fail.
	sum, _ := par.Sum(context.Background(), n, workers, func(lo, hi int) int64 {
		var s int64
		for v := lo; v < hi; v++ {
			sv := sampled[v]
			for _, u := range sv {
				s += int64(graph.IntersectCount(sv, sampled[u]))
			}
		}
		return s
	})
	return float64(sum) / (frac * frac * frac)
}

// vcMessage is one unit of vertex-centric communication: the
// Auto-Approximation schemes of Shang & Yu operate in a purely
// vertex-centric model, where neighborhoods arrive as materialized
// per-edge messages rather than shared CSR slices. Materializing these
// messages is the abstraction's intrinsic overhead; the paper measures
// it as making AutoApprox slower than the exact tuned baselines, and
// this implementation reproduces that honestly rather than shortcutting
// through the CSR.
type vcMessage struct {
	src     uint32
	payload []uint32 // copy of the sender's neighbor list
}

// autoApproxGather counts, for one vertex, triangles closed by its
// received messages (vertex-centric gather phase).
func autoApproxGather(g *graph.Graph, v uint32, inbox []vcMessage) int64 {
	nv := g.Neighbors(v)
	var tri int64
	for _, msg := range inbox {
		if msg.src <= v {
			continue // count each apex pair once
		}
		for _, w := range msg.payload {
			if w <= msg.src {
				continue
			}
			if idx := sort.Search(len(nv), func(i int) bool { return nv[i] >= w }); idx < len(nv) && nv[idx] == w {
				tri++
			}
		}
	}
	return tri
}

// autoApproxProcess runs the vertex-centric superstep for the given
// vertices: every processed vertex receives one message per incident
// edge carrying the sender's full neighbor list (scatter), then gathers.
func autoApproxProcess(g *graph.Graph, vertices []uint32, workers int) int64 {
	// An uncancellable context: Sum cannot fail.
	sum, _ := par.Sum(context.Background(), len(vertices), workers, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			v := vertices[i]
			nv := g.Neighbors(v)
			inbox := make([]vcMessage, 0, len(nv))
			for _, u := range nv {
				// Message payloads are copies: the vertex-centric runtime
				// cannot hand out shared CSR slices.
				payload := append([]uint32(nil), g.Neighbors(u)...)
				inbox = append(inbox, vcMessage{src: u, payload: payload})
			}
			s += autoApproxGather(g, v, inbox)
		}
		return s
	})
	return sum
}

// AutoApprox1TC is Auto-Approximation variant 1: process a uniform
// random fraction of vertices vertex-centrically and extrapolate
// linearly by vertex count.
func AutoApprox1TC(g *graph.Graph, frac float64, seed uint64, workers int) float64 {
	n := g.NumVertices()
	if n == 0 || frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	r := rand.New(rand.NewPCG(seed, 0xaa1))
	perm := r.Perm(n)
	cut := int(frac * float64(n))
	if cut < 1 {
		cut = 1
	}
	picked := make([]uint32, cut)
	for i := 0; i < cut; i++ {
		picked[i] = uint32(perm[i])
	}
	count := autoApproxProcess(g, picked, workers)
	return float64(count) * float64(n) / float64(cut)
}

// AutoApprox2TC is variant 2: degree-stratified sampling — vertices are
// bucketed by degree and sampled per bucket, extrapolating each stratum
// separately, which reduces the variance on skewed graphs.
func AutoApprox2TC(g *graph.Graph, frac float64, seed uint64, workers int) float64 {
	n := g.NumVertices()
	if n == 0 || frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	// Buckets by log2(degree).
	buckets := make(map[int][]uint32)
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		b := 0
		for dd := d; dd > 1; dd >>= 1 {
			b++
		}
		buckets[b] = append(buckets[b], uint32(v))
	}
	r := rand.New(rand.NewPCG(seed, 0xaa2))
	var est float64
	for _, vs := range buckets {
		r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		cut := int(frac * float64(len(vs)))
		if cut < 1 {
			cut = 1
		}
		count := autoApproxProcess(g, vs[:cut], workers)
		est += float64(count) * float64(len(vs)) / float64(cut)
	}
	return est
}
