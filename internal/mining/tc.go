// Package mining implements the graph-mining algorithms of §III both in
// their exact tuned form (the CSR baselines of the evaluation) and in
// their ProbGraph-enhanced form, where every |X∩Y| marked blue in
// Listings 1–5 is replaced by a sketch estimator. All algorithms are
// parallel over the loops the listings mark "[in par]".
//
// Every parallel kernel has a context-aware variant (the *Ctx form) that
// observes cancellation at the chunk boundaries of internal/par and
// returns ctx.Err(); the plain form is a thin wrapper over a background
// context, preserved for callers that cannot be cancelled.
package mining

import (
	"context"
	"math"
	"sort"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/par"
)

// batchBufs is the per-chunk scratch of the batched IntCard kernels:
// one popcount buffer and one estimate buffer, grown to the largest
// candidate window the chunk sees. Summation stays in candidate order,
// so batched kernels remain bit-identical to the scalar loops.
type batchBufs struct {
	cnt []int32
	out []float64
}

func (b *batchBufs) size(n int) ([]int32, []float64) {
	if n > cap(b.cnt) {
		b.cnt = make([]int32, n)
		b.out = make([]float64, n)
	}
	return b.cnt[:n], b.out[:n]
}

// ExactTC counts triangles with the node-iterator algorithm of Listing 1:
// vertices are ranked by degree, every edge is oriented toward the
// higher-ranked endpoint, and tc = Σ_v Σ_{u∈N+_v} |N+_v ∩ N+_u| with the
// adaptive merge/galloping intersection. Work O(n·d²), depth O(log d).
func ExactTC(o *graph.Oriented, workers int) int64 {
	tc, _ := ExactTCCtx(context.Background(), o, workers)
	return tc
}

// ExactTCCtx is ExactTC with cooperative cancellation.
func ExactTCCtx(ctx context.Context, o *graph.Oriented, workers int) (int64, error) {
	n := o.NumVertices()
	return par.Sum(ctx, n, workers, func(lo, hi int) int64 {
		var tc int64
		for v := lo; v < hi; v++ {
			nv := o.NPlus(uint32(v))
			for _, u := range nv {
				tc += int64(graph.IntersectCount(nv, o.NPlus(u)))
			}
		}
		return tc
	})
}

// PGTC estimates the triangle count with the §VII estimator
// T̂C = (1/3)·Σ_{(u,v)∈E} |N_u ∩ N_v|̂ over full-neighborhood sketches.
// The estimator inherits the statistical properties of the underlying
// |X∩Y| estimator (MLE and exponential concentration for k-Hash).
func PGTC(g *graph.Graph, pg *core.PG, workers int) float64 {
	tc, _ := PGTCCtx(context.Background(), g, pg, workers)
	return tc
}

// PGTCCtx is PGTC with cooperative cancellation.
func PGTCCtx(ctx context.Context, g *graph.Graph, pg *core.PG, workers int) (float64, error) {
	n := g.NumVertices()
	sum, err := par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		var bufs batchBufs
		var s float64
		for u := lo; u < hi; u++ {
			nv := g.Neighbors(uint32(u))
			// Each undirected edge once: neighbor lists are sorted
			// ascending, so the v > u half is the suffix.
			k := sort.Search(len(nv), func(i int) bool { return nv[i] > uint32(u) })
			cands := nv[k:]
			if len(cands) == 0 {
				continue
			}
			// Flat accumulation into s, matching the original scalar
			// loop's addition order bit-for-bit (the fused Sum form
			// would regroup per row).
			cnt, out := bufs.size(len(cands))
			pg.IntCardMany(uint32(u), cands, cnt, out)
			for _, est := range out {
				s += est
			}
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return sum / 3, nil
}

// RoundCount rounds a non-negative estimate to the nearest integer count.
func RoundCount(est float64) int64 {
	if est < 0 {
		return 0
	}
	return int64(math.Round(est))
}

// LocalClusteringCoefficient returns the average local clustering
// coefficient computed exactly: for each vertex, triangles through it
// over d_v(d_v-1)/2. One of the §III-A applications (network cohesion).
func LocalClusteringCoefficient(g *graph.Graph, workers int) float64 {
	cc, _ := LocalClusteringCoefficientCtx(context.Background(), g, workers)
	return cc
}

// LocalClusteringCoefficientCtx is LocalClusteringCoefficient with
// cooperative cancellation.
func LocalClusteringCoefficientCtx(ctx context.Context, g *graph.Graph, workers int) (float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	sum, err := par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		var s float64
		for v := lo; v < hi; v++ {
			nv := g.Neighbors(uint32(v))
			d := len(nv)
			if d < 2 {
				continue
			}
			var tri int64
			for _, u := range nv {
				tri += int64(graph.IntersectCount(nv, g.Neighbors(u)))
			}
			// Each triangle at v is counted twice (once per other corner).
			s += float64(tri) / float64(d*(d-1))
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return sum / float64(n), nil
}

// PGLocalClusteringCoefficient is the PG-enhanced variant: the per-vertex
// triangle count uses sketch intersections over the vertex's neighbors.
func PGLocalClusteringCoefficient(g *graph.Graph, pg *core.PG, workers int) float64 {
	cc, _ := PGLocalClusteringCoefficientCtx(context.Background(), g, pg, workers)
	return cc
}

// PGLocalClusteringCoefficientCtx is PGLocalClusteringCoefficient with
// cooperative cancellation.
func PGLocalClusteringCoefficientCtx(ctx context.Context, g *graph.Graph, pg *core.PG, workers int) (float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, nil
	}
	sum, err := par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		var bufs batchBufs
		var s float64
		for v := lo; v < hi; v++ {
			nv := g.Neighbors(uint32(v))
			d := len(nv)
			if d < 2 {
				continue
			}
			cnt, _ := bufs.size(d)
			s += pg.IntCardSum(uint32(v), nv, cnt) / float64(d*(d-1))
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return sum / float64(n), nil
}

// Cohesion computes the exact network cohesion TC/C(n,3) of §III-A for
// the whole graph.
func Cohesion(g *graph.Graph, o *graph.Oriented, workers int) float64 {
	n := float64(g.NumVertices())
	denom := n * (n - 1) * (n - 2) / 6
	if denom == 0 {
		return 0
	}
	return float64(ExactTC(o, workers)) / denom
}

// LocalTC computes the exact per-vertex triangle counts: tc[v] is the
// number of triangles through v. Per-vertex triangle participation is
// the §III-A signal for spam detection and community discovery (spam
// and legitimate pages differ in the triangle counts they belong to).
func LocalTC(g *graph.Graph, workers int) []int64 {
	counts, _ := LocalTCCtx(context.Background(), g, workers)
	return counts
}

// LocalTCCtx is LocalTC with cooperative cancellation; on cancellation
// the partially-filled slice is discarded and ctx.Err() returned.
func LocalTCCtx(ctx context.Context, g *graph.Graph, workers int) ([]int64, error) {
	n := g.NumVertices()
	counts := make([]int64, n)
	err := par.ForCtx(ctx, n, workers, func(v int) {
		nv := g.Neighbors(uint32(v))
		var c int64
		for _, u := range nv {
			c += int64(graph.IntersectCount(nv, g.Neighbors(u)))
		}
		counts[v] = c / 2 // each triangle at v seen via both other corners
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// PGLocalTC estimates the per-vertex triangle counts through sketch
// intersections: work O(d_v · B/W) per vertex instead of O(d_v · d).
func PGLocalTC(g *graph.Graph, pg *core.PG, workers int) []float64 {
	counts, _ := PGLocalTCCtx(context.Background(), g, pg, workers)
	return counts
}

// PGLocalTCCtx is PGLocalTC with cooperative cancellation.
func PGLocalTCCtx(ctx context.Context, g *graph.Graph, pg *core.PG, workers int) ([]float64, error) {
	n := g.NumVertices()
	counts := make([]float64, n)
	err := par.ForChunkedCtx(ctx, n, workers, func(lo, hi int) {
		var bufs batchBufs
		for v := lo; v < hi; v++ {
			nv := g.Neighbors(uint32(v))
			if len(nv) == 0 {
				counts[v] = 0
				continue
			}
			cnt, _ := bufs.size(len(nv))
			counts[v] = pg.IntCardSum(uint32(v), nv, cnt) / 2
		}
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}
