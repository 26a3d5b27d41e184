package pattern

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/par"
)

// ErrEstimate is returned by CountEstimate for patterns its closing
// step cannot handle (more than 3 back-edges at the final level, or a
// symmetry relaxation without a uniform overcount factor).
var ErrEstimate = errors.New("pattern: estimate mode unsupported for this pattern")

// Stats describes one plan execution. All counters are deterministic
// for a fixed (graph, plan, sketch) regardless of worker count.
type Stats struct {
	// Embeddings is the number of symmetry-unique embeddings found
	// (exact modes) or relaxed partial embeddings closed (estimate).
	Embeddings int64 `json:"embeddings"`
	// Candidates is the number of candidate extensions considered
	// after ordering-window filtering, across all levels.
	Candidates int64 `json:"candidates"`
	// SketchPruned counts candidates rejected by a sound sketch
	// membership probe before any exact adjacency check.
	SketchPruned int64 `json:"sketch_pruned"`
	// EdgeChecks counts exact adjacency verifications performed.
	EdgeChecks int64 `json:"edge_checks"`
	// EstPairs / EstTriples count closing-level estimator calls
	// (pairwise IntCard and triple IntCard3 respectively).
	EstPairs   int64 `json:"est_pairs,omitempty"`
	EstTriples int64 `json:"est_triples,omitempty"`
	// SumSizes accumulates Σ(|N_u|+|N_v|) over EstPairs calls — the
	// size term of the MinHash pattern deviation bound.
	SumSizes float64 `json:"sum_sizes,omitempty"`
}

func (s *Stats) add(o Stats) {
	s.Embeddings += o.Embeddings
	s.Candidates += o.Candidates
	s.SketchPruned += o.SketchPruned
	s.EdgeChecks += o.EdgeChecks
	s.EstPairs += o.EstPairs
	s.EstTriples += o.EstTriples
	s.SumSizes += o.SumSizes
}

// CountExact counts the symmetry-unique embeddings of the plan's
// pattern in g. With pg == nil every candidate extension is verified
// by exact adjacency alone; with a pg, candidates are first probed
// with core.PG.CertainAbsent — a reject there is a proof of absence,
// so the returned count is bit-identical either way (only the work
// differs, visible in Stats).
func CountExact(ctx context.Context, g *graph.Graph, plan *Plan, pg *core.PG, workers int) (int64, Stats, error) {
	outs, err := run(ctx, g, plan, pg, workers, false)
	if err != nil {
		return 0, Stats{}, err
	}
	var st Stats
	var total int64
	for _, o := range outs {
		total += o.st.Embeddings
		st.add(o.st)
	}
	return total, st, nil
}

// CountEstimate estimates the embedding count: the plan runs with its
// last level's symmetry constraints relaxed, every partial embedding's
// closing extension count is taken from the sketch (degree for one
// back-edge, IntCard for two, IntCard3 for three — Listings 1/2
// generalized) with mapped vertices corrected exactly, and the total
// is divided by the compile-time relaxation factor RelaxF.
func CountEstimate(ctx context.Context, g *graph.Graph, plan *Plan, pg *core.PG, workers int) (float64, Stats, error) {
	if pg == nil {
		return 0, Stats{}, fmt.Errorf("%w: no sketch", ErrEstimate)
	}
	if r := len(plan.Back[plan.P.k-1]); r > 3 {
		return 0, Stats{}, fmt.Errorf("%w: closing level has %d back-edges (max 3)", ErrEstimate, r)
	}
	outs, err := run(ctx, g, plan, pg, workers, true)
	if err != nil {
		return 0, Stats{}, err
	}
	var st Stats
	var sum float64
	for _, o := range outs { // chunk order: deterministic float sum
		sum += o.est
		st.add(o.st)
	}
	return sum / float64(plan.RelaxF), st, nil
}

type chunkOut struct {
	est float64
	st  Stats
}

// run sweeps DFS roots over all vertices on par's chunk grid and
// returns the per-chunk partials in chunk order. The grid depends only
// on the vertex count, so merging the partials in that order makes
// counts AND float estimates bit-identical across any -workers setting
// (the serving determinism contract the cluster smoke test asserts).
func run(ctx context.Context, g *graph.Graph, plan *Plan, pg *core.PG, workers int, estimate bool) ([]chunkOut, error) {
	done := ctx.Done()
	outs, err := par.Chunks(ctx, g.NumVertices(), workers, func(lo, hi int) chunkOut {
		e := &exec{g: g, pg: pg, plan: plan, estimate: estimate, done: done}
		if pg != nil {
			// BF probes go through the hoisted Prober (the fast path the
			// bench speedup rides on); 1H/KMV keep the general oracle.
			e.probe = pg.Prober()
			e.pruneOn = e.probe != nil || pg.Cfg.Kind == core.OneHash || pg.Cfg.Kind == core.KMV
			if e.probe != nil {
				e.sigMem = make([]core.ProbePos, MaxVertices*e.probe.B())
			}
		}
		if estimate {
			e.levels = plan.P.k - 1
			e.closeBack = plan.Back[plan.P.k-1]
			e.gt, e.lt = plan.EstGt, plan.EstLt
		} else {
			e.levels = plan.P.k
			e.gt, e.lt = plan.Gt, plan.Lt
		}
		for v := lo; v < hi; v++ {
			if par.Cancelled(e.done) {
				break
			}
			e.mapped[0] = uint32(v)
			e.extend(1)
		}
		return e.out
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// exec is one chunk's DFS state; out accumulates the chunk's result.
type exec struct {
	g        *graph.Graph
	pg       *core.PG
	plan     *Plan
	done     <-chan struct{}
	out      chunkOut
	estimate bool
	pruneOn  bool
	probe    *core.Prober // non-nil iff BF
	// sigs[j] is mapped[j]'s precomputed probe signature for the
	// current extension level; sigMem is its backing storage.
	sigs   [MaxVertices][]core.ProbePos
	sigMem []core.ProbePos
	// absent[i] is level i's batched first-back-edge probe result,
	// aligned with the level's candidate window (see extend).
	absent [MaxVertices][]bool
	// levels is the number of DFS levels to enumerate (k, or k-1 in
	// estimate mode where the last level is closed by an estimator).
	levels    int
	closeBack []int
	// gt/lt are the active ordering constraints: the full plan sets in
	// exact mode, the uniform relaxed subset in estimate mode.
	gt, lt [][]int
	mapped [MaxVertices]uint32
}

// extend matches level i and recurses. Candidates come from the
// smallest-degree back-neighbor's exact adjacency list, windowed by
// the symmetry constraints (lists are sorted, so the lower bound is a
// binary search and the upper bound a break), then filtered by
// injectivity, sketch probes (sound rejects only), and exact adjacency.
func (e *exec) extend(i int) {
	if i == e.levels {
		if e.estimate {
			e.close()
		} else {
			e.out.st.Embeddings++
		}
		return
	}
	backs := e.plan.Back[i]
	src := backs[0]
	for _, b := range backs[1:] {
		if e.g.Degree(e.mapped[b]) < e.g.Degree(e.mapped[src]) {
			src = b
		}
	}
	cands := e.g.Neighbors(e.mapped[src])

	var low uint32
	for _, j := range e.gt[i] {
		if m := e.mapped[j] + 1; m > low {
			low = m
		}
	}
	high := uint32(1<<32 - 1)
	for _, j := range e.lt[i] {
		if m := e.mapped[j]; m < high {
			high = m
		}
	}
	// Both window bounds resolve by binary search (lists are sorted), so
	// the loop's exact candidate window is known up front — which is what
	// lets the first back edge's probe run batched over it.
	lo := 0
	if low > 0 {
		lo = sort.Search(len(cands), func(t int) bool { return cands[t] >= low })
	}
	win := cands[lo:]
	if hi := sort.Search(len(win), func(t int) bool { return win[t] >= high }); hi < len(win) {
		win = win[:hi]
	}

	// Hoist the back vertices' probe signatures: the candidate loop then
	// tests each back against the CANDIDATE's row — edge symmetry — at
	// one load per hash function, with no per-candidate hashing. The
	// FIRST non-src back edge goes further: its probe is evaluated for
	// the whole window in one batched kernel pass (core.AbsentAtMany),
	// and the per-candidate loop just consumes the precomputed bit. Only
	// the first back is batched — later backs run rarely (they execute
	// only for candidates the earlier filters admitted), so probing them
	// for every window member would be wasted work. Stats are untouched:
	// SketchPruned/EdgeChecks increments still happen exactly where the
	// scalar probes did.
	first := -1
	if e.probe != nil {
		b := e.probe.B()
		for _, j := range backs {
			if j != src {
				if first < 0 {
					first = j
				}
				e.sigs[j] = e.probe.SigInto(e.mapped[j], e.sigMem[j*b:(j+1)*b])
			}
		}
		if first >= 0 && len(win) > 0 {
			if cap(e.absent[i]) < len(win) {
				e.absent[i] = make([]bool, len(win))
			}
			e.absent[i] = e.absent[i][:len(win)]
			e.probe.AbsentAtMany(e.sigs[first], win, e.absent[i])
		}
	}

	checkCancel := i == 1 // bound staleness by one root's level-1 frontier
	for ci, c := range win {
		if checkCancel && par.Cancelled(e.done) {
			return
		}
		e.out.st.Candidates++
		ok := true
		for j := 0; j < i; j++ {
			if e.mapped[j] == c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, j := range backs {
			if j == src {
				continue
			}
			u := e.mapped[j]
			if e.pruneOn {
				absent := false
				switch {
				case j == first:
					absent = e.absent[i][ci]
				case e.probe != nil:
					absent = e.probe.AbsentAt(e.sigs[j], c)
				default:
					absent = e.pg.CertainAbsent(u, c)
				}
				if absent {
					e.out.st.SketchPruned++
					ok = false
					break
				}
			}
			e.out.st.EdgeChecks++
			if !e.g.HasEdge(u, c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		e.mapped[i] = c
		e.extend(i + 1)
	}
}

// close finishes one relaxed partial embedding in estimate mode: the
// closing vertex's extension count is estimated from the sketch and
// the mapped vertices that the estimator would wrongly include are
// subtracted exactly, so injectivity costs no accuracy.
func (e *exec) close() {
	backs := e.closeBack
	var term float64
	switch len(backs) {
	case 1:
		term = float64(e.g.Degree(e.mapped[backs[0]]))
	case 2:
		u, v := e.mapped[backs[0]], e.mapped[backs[1]]
		term = e.pg.IntCard(u, v)
		e.out.st.EstPairs++
		e.out.st.SumSizes += float64(e.g.Degree(u) + e.g.Degree(v))
	case 3:
		term = e.pg.IntCard3(e.mapped[backs[0]], e.mapped[backs[1]], e.mapped[backs[2]])
		e.out.st.EstTriples++
	}
	corr := 0
	for lvl := 0; lvl < e.levels; lvl++ {
		w := e.mapped[lvl]
		in := true
		for _, j := range backs {
			u := e.mapped[j]
			if w == u || !e.g.HasEdge(u, w) {
				in = false
				break
			}
		}
		if in {
			corr++
		}
	}
	e.out.est += term - float64(corr)
	e.out.st.Embeddings++
}
