package mining

import (
	"context"
	"fmt"

	"probgraph/internal/bitset"
	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/par"
	"probgraph/internal/sketch"
)

// Exact4Clique counts 4-cliques with the reformulated algorithm of
// Listing 2: for every oriented edge (u,v) the 3-clique completions
// C3 = N+_u ∩ N+_v are listed, and for every w ∈ C3 the count grows by
// |N+_w ∩ C3|. Under the degree ranking every 4-clique {a<b<c<d} is
// counted exactly once (u=a, v=b, w=c, closing at d).
// Work O(n·d³), depth O(log² d) (Table VI).
func Exact4Clique(o *graph.Oriented, workers int) int64 {
	ck, _ := Exact4CliqueCtx(context.Background(), o, workers)
	return ck
}

// Exact4CliqueCtx is Exact4Clique with cooperative cancellation.
func Exact4CliqueCtx(ctx context.Context, o *graph.Oriented, workers int) (int64, error) {
	n := o.NumVertices()
	return par.Sum(ctx, n, workers, func(lo, hi int) int64 {
		var ck int64
		var c3 []uint32
		for u := lo; u < hi; u++ {
			nu := o.NPlus(uint32(u))
			for _, v := range nu {
				c3 = graph.Intersect(nu, o.NPlus(v), c3[:0])
				for _, w := range c3 {
					ck += int64(graph.IntersectCount(o.NPlus(w), c3))
				}
			}
		}
		return ck
	})
}

// PG4Clique estimates the 4-clique count with the PG-enhanced Listing 2.
// Reconstruction note (documented in DESIGN.md): the listing marks only
// the inner cardinality |N+_w ∩ C3| blue.
//
//   - BF: C3 is enumerated exactly (its elements drive the w loop) and
//     the dominant inner cardinality uses the three-way AND
//     B_w ∧ B_u ∧ B_v — the AND of two filters approximates B_{C3} at
//     zero construction cost.
//   - 1-Hash with stored elements: fully sample-based. The common
//     elements of the two sketches are a bottom sample of C3; the w loop
//     runs over that sample only and the result is rescaled by
//     |̂C3|/|sample| — this is the paper's "MH explicitly eliminates
//     vertices" behaviour: much faster, somewhat less accurate.
//   - other sample-based sketches fall back to the exact C3 list with
//     the min-of-pairwise-estimates heuristic of core.IntCard3.
//
// pg must be built over the oriented neighborhoods (core.BuildOriented).
func PG4Clique(o *graph.Oriented, pg *core.PG, workers int) float64 {
	ck, _ := PG4CliqueCtx(context.Background(), o, pg, workers)
	return ck
}

// PG4CliqueCtx is PG4Clique with cooperative cancellation.
func PG4CliqueCtx(ctx context.Context, o *graph.Oriented, pg *core.PG, workers int) (float64, error) {
	if pg.Cfg.Kind == core.OneHash && pg.HasElems() {
		return pg4CliqueSampled(ctx, o, pg, workers)
	}
	n := o.NumVertices()
	return par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		var ck float64
		var c3 []uint32
		var bufs batchBufs
		tmp := make([]uint64, pg.RowWords())
		for u := lo; u < hi; u++ {
			nu := o.NPlus(uint32(u))
			for _, v := range nu {
				c3 = graph.Intersect(nu, o.NPlus(v), c3[:0])
				if len(c3) == 0 {
					continue
				}
				// The pair (u,v) is fixed across the w loop: batch the
				// triple as one materialized pair-AND streamed over C3.
				// Flat accumulation into ck keeps the original scalar
				// loop's addition order bit-for-bit.
				cnt, out := bufs.size(len(c3))
				pg.IntCard3Many(uint32(u), v, c3, tmp, cnt, out)
				for _, est := range out {
					ck += est
				}
			}
		}
		return ck
	})
}

// pg4CliqueSampled is the 1-Hash sample path: never touches the exact
// adjacency inside the pair loop. For every oriented edge (u, v), the
// intersection of the two bottom-k sketches yields both a C3 size
// estimate and a sample of C3's members (with their hash values — a
// bottom sample of C3 under the shared hash function); the inner
// cardinality is estimated per sampled w and extrapolated.
func pg4CliqueSampled(ctx context.Context, o *graph.Oriented, pg *core.PG, workers int) (float64, error) {
	n := o.NumVertices()
	k := pg.Cfg.K
	return par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		var ck float64
		sampleH := make([]uint64, 0, k)
		sampleE := make([]uint32, 0, k)
		for u := lo; u < hi; u++ {
			ru := pg.BottomKRow(uint32(u))
			for _, v := range o.NPlus(uint32(u)) {
				rv := pg.BottomKRow(v)
				// Sorted-merge: collect common hash values and elements.
				sampleH, sampleE = sampleH[:0], sampleE[:0]
				i, j := 0, 0
				for i < len(ru.Hashes) && j < len(rv.Hashes) {
					switch {
					case ru.Hashes[i] == rv.Hashes[j]:
						sampleH = append(sampleH, ru.Hashes[i])
						sampleE = append(sampleE, ru.Elems[i])
						i++
						j++
					case ru.Hashes[i] < rv.Hashes[j]:
						i++
					default:
						j++
					}
				}
				if len(sampleH) == 0 {
					continue
				}
				estC3 := pg.IntCard(uint32(u), v)
				if estC3 <= 0 {
					continue
				}
				c3sketch := sketch.BottomK{Hashes: sampleH}
				kCap := len(sampleH)
				var inner float64
				for _, w := range sampleE {
					jac := sketch.OneHashJaccard(pg.BottomKRow(w), c3sketch, kCap)
					if jac > 0 {
						inner += jac / (1 + jac) * (float64(pg.SetSize(w)) + estC3)
					}
				}
				ck += inner * estC3 / float64(len(sampleE))
			}
		}
		return ck
	})
}

// ExactKClique counts k-cliques (k >= 3) by recursive neighborhood
// intersection over the oriented DAG — the generalization of Listing 2
// used to cross-check the 4-clique path and to exercise larger patterns.
func ExactKClique(o *graph.Oriented, k, workers int) int64 {
	ck, _ := ExactKCliqueCtx(context.Background(), o, k, workers)
	return ck
}

// ExactKCliqueCtx is ExactKClique with cooperative cancellation.
func ExactKCliqueCtx(ctx context.Context, o *graph.Oriented, k, workers int) (int64, error) {
	if k < 3 {
		return 0, nil
	}
	n := o.NumVertices()
	return par.Sum(ctx, n, workers, func(lo, hi int) int64 {
		var total int64
		scratch := make([][]uint32, k)
		for v := lo; v < hi; v++ {
			total += kcliqueRec(o, o.NPlus(uint32(v)), k-1, scratch, 0)
		}
		return total
	})
}

// kcliqueRec counts completions of a partial clique whose common
// out-neighborhood is cand; depth more levels remain.
func kcliqueRec(o *graph.Oriented, cand []uint32, depth int, scratch [][]uint32, level int) int64 {
	if depth == 1 {
		return int64(len(cand))
	}
	if depth == 2 {
		var c int64
		for _, w := range cand {
			c += int64(graph.IntersectCount(o.NPlus(w), cand))
		}
		return c
	}
	var c int64
	for _, w := range cand {
		scratch[level] = graph.Intersect(cand, o.NPlus(w), scratch[level][:0])
		c += kcliqueRec(o, scratch[level], depth-1, scratch, level+1)
	}
	return c
}

// PGKClique estimates the k-clique count (k >= 3) with the ProbGraph
// generalization of Listing 2: candidate lists are enumerated exactly
// down to the last level, where the dominant closing cardinality
// |N+_w ∩ C| is estimated on the cumulative bitwise AND of the Bloom
// filters along the clique prefix — the same estimator composition that
// the 4-clique reformulation exposes, extended to arbitrary pattern
// order (cf. the higher-order clique counting discussion of §X).
// pg must be a BF ProbGraph over the oriented neighborhoods.
func PGKClique(o *graph.Oriented, pg *core.PG, k, workers int) (float64, error) {
	return PGKCliqueCtx(context.Background(), o, pg, k, workers)
}

// PGKCliqueCtx is PGKClique with cooperative cancellation.
func PGKCliqueCtx(ctx context.Context, o *graph.Oriented, pg *core.PG, k, workers int) (float64, error) {
	if pg == nil {
		return 0, fmt.Errorf("mining: PGKClique needs a ProbGraph (core.BuildOriented over the same orientation)")
	}
	if pg.Cfg.Kind != core.BF {
		return 0, fmt.Errorf("mining: PGKClique requires a Bloom-filter ProbGraph, got %v", pg.Cfg.Kind)
	}
	if k < 3 {
		return 0, fmt.Errorf("mining: PGKClique needs k >= 3, got %d", k)
	}
	n := o.NumVertices()
	words := pg.Cfg.BloomBits / bitset.WordBits
	total, err := par.Sum(ctx, n, workers, func(lo, hi int) float64 {
		scratch := make([][]uint32, k)
		// acc[level] is the AND of the Bloom filters along the prefix.
		acc := make([]bitset.Bits, k)
		for i := range acc {
			acc[i] = make(bitset.Bits, words)
		}
		var bufs batchBufs
		var s float64
		for v := lo; v < hi; v++ {
			nv := o.NPlus(uint32(v))
			if len(nv) == 0 {
				continue
			}
			copy(acc[0], pg.BloomRow(uint32(v)))
			s += pgKCliqueRec(o, pg, nv, k-1, scratch, acc, 1, &bufs)
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// pgKCliqueRec extends the clique prefix: cand holds the exact common
// out-neighborhood, acc[level-1] the AND of the prefix's Bloom filters.
func pgKCliqueRec(o *graph.Oriented, pg *core.PG, cand []uint32, depth int, scratch [][]uint32, acc []bitset.Bits, level int, bufs *batchBufs) float64 {
	if depth == 1 {
		return float64(len(cand))
	}
	prev := acc[level-1]
	if depth == 2 {
		// Closing level: the accumulated prefix AND streams over the
		// whole candidate window in one batched pass.
		cnt, _ := bufs.size(len(cand))
		return pg.AndCardSum(prev, cand, cnt)
	}
	var s float64
	for _, w := range cand {
		scratch[level] = graph.Intersect(cand, o.NPlus(w), scratch[level][:0])
		if len(scratch[level]) == 0 {
			continue
		}
		bitset.And(acc[level], prev, pg.BloomRow(w))
		s += pgKCliqueRec(o, pg, scratch[level], depth-1, scratch, acc, level+1, bufs)
	}
	return s
}
