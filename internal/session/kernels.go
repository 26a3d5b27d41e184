package session

import (
	"context"
	"fmt"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/dist"
	"probgraph/internal/estimator"
	"probgraph/internal/graph"
	"probgraph/internal/mining"
	"probgraph/internal/obs"
	"probgraph/internal/pattern"
)

// Mode selects between the exact CSR baseline and the ProbGraph sketch
// estimator of a kernel. The zero value is Exact.
type Mode int

const (
	// Exact runs the tuned CSR baseline.
	Exact Mode = iota
	// Sketched runs the PG-enhanced kernel over the Session's sketches.
	Sketched
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Sketched:
		return "sketched"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

func (m Mode) valid() bool { return m == Exact || m == Sketched }

// Result is the typed outcome of one kernel run: the scalar value, the
// Theorem VII.1 error bound where the theory provides one, wall-clock
// timing, and the kernel-specific payloads.
type Result struct {
	// Kernel and Mode echo what ran; Kind is the sketch representation
	// used (Sketched runs only).
	Kernel string
	Mode   Mode
	Kind   core.Kind

	// Value is the kernel's scalar result: the (estimated) count for the
	// counting kernels, the similarity score, the cluster count, the
	// link-prediction efficiency, the mean edge similarity for DistSim.
	Value float64

	// Bound is the half-width of the theoretical deviation guarantee at
	// Confidence (|result − truth| ≤ Bound with probability ≥ Confidence),
	// from internal/estimator; both are zero when no bound applies.
	Bound      float64
	Confidence float64

	// Elapsed is the kernel's wall-clock time, excluding cached derived
	// state that was already resident but including builds this run
	// triggered.
	Elapsed time.Duration

	// Kernel-specific payloads (nil/empty unless that kernel ran).
	Clusters *mining.Clustering
	LinkPred *mining.LinkPredResult
	Locals   []float64
	Net      *dist.NetStats
	// PatternStats carries the pattern kernel's execution counters
	// (candidates, sketch prunes, estimator calls).
	PatternStats *pattern.Stats
}

// Count rounds the non-negative Value to the nearest integer count.
func (r Result) Count() int64 { return mining.RoundCount(r.Value) }

// Kernel is one mining problem, ready to Run on a Session. Kernel values
// are plain structs (TC, KClique, VertexSim, ...); their zero values run
// the exact baseline.
type Kernel interface {
	// Name returns the kernel's short name for logs and bench records.
	Name() string

	run(ctx context.Context, s *Session) (Result, error)
}

// Run executes one kernel under the Session's configuration with
// cooperative cancellation: ctx is observed at the chunk boundaries of
// every parallel loop, and a cancelled run returns ctx.Err() within one
// chunk. Float results are bit-identical to the flat API at any worker
// count: every loop walks internal/par's fixed chunk grid. Derived state
// (orientation, sketches) is built lazily and cached; misconfiguration
// (out-of-range vertices, bad K, unsupported sketch/kernel
// combinations) is reported as an error, never a panic.
func (s *Session) Run(ctx context.Context, k Kernel) (Result, error) {
	if k == nil {
		return Result{}, fmt.Errorf("session: nil kernel")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "session/"+k.Name())
	res, err := k.run(ctx, s)
	if err != nil {
		sp.Attr("error", err.Error())
		sp.End()
		obs.Default().Counter("probgraph_session_kernel_errors_total",
			"Kernel runs that returned an error, by kernel.",
			obs.L("kernel", k.Name())).Inc()
		return Result{}, err
	}
	res.Kernel = k.Name()
	res.Elapsed = time.Since(start)
	sp.Attr("mode", res.Mode.String())
	sp.End()
	kernelHist(k.Name(), res.Mode).Record(res.Elapsed)
	return res, nil
}

// errMode rejects modes outside {Exact, Sketched}.
func errMode(kernel string, m Mode) error {
	return fmt.Errorf("session: %s: unknown mode %v", kernel, m)
}

// checkVertex validates a vertex ID against the Session's graph.
func (s *Session) checkVertex(v uint32) error {
	if n := s.st.g.NumVertices(); int64(v) >= int64(n) {
		return fmt.Errorf("session: vertex %d out of range [0,%d)", v, n)
	}
	return nil
}

// checkMeasure validates a Listing 3 measure.
func checkMeasure(m mining.Measure) error {
	if m < mining.Jaccard || m > mining.ResourceAllocation {
		return fmt.Errorf("session: unknown measure %d", int(m))
	}
	return nil
}

// tcBound evaluates the Theorem VII.1 deviation bound for the
// representation that produced the estimate, at 95% confidence. The
// k-Hash statement is exponential in k; the Bloom statement comes from
// the Prop. IV.1 MSE via Chebyshev and is valid only under its
// b·Δ ≤ 0.499·B·ln B precondition. The other representations have no TC
// bound in the paper and report zero.
func (s *Session) tcBound(pg *core.PG) (bound, conf float64) {
	const confidence = 0.95
	gm := s.Moments()
	switch pg.Cfg.Kind {
	case core.KHash:
		return estimator.TCDeviationMinHash(gm, pg.Cfg.K, confidence), confidence
	case core.BF:
		if t, valid := estimator.TCDeviationBF(gm, pg.Cfg.BloomBits, pg.Cfg.NumHashes, confidence); valid {
			return t, confidence
		}
	}
	return 0, 0
}

// TC is the triangle-counting kernel (Listing 1 / §VII).
type TC struct {
	Mode Mode
}

// Name implements Kernel.
func (TC) Name() string { return "tc" }

func (k TC) run(ctx context.Context, s *Session) (Result, error) {
	switch k.Mode {
	case Exact:
		o, err := s.Oriented(ctx)
		if err != nil {
			return Result{}, err
		}
		tc, err := mining.ExactTCCtx(ctx, o, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Exact, Value: float64(tc)}, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		est, err := mining.PGTCCtx(ctx, s.st.g, pg, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		res := Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: est}
		_, bsp := obs.StartSpan(ctx, "bound/tc")
		res.Bound, res.Confidence = s.tcBound(pg)
		bsp.End()
		return res, nil
	}
	return Result{}, errMode("tc", k.Mode)
}

// PatternCount is the pattern-mining kernel: embeddings of a small
// query pattern (internal/pattern builtins or pattern.Parse edge
// lists) counted via a compiled symmetry-broken exploration plan.
// Exact mode enumerates; with Prune set, candidate extensions are
// pre-filtered by sound sketch membership rejects first, keeping the
// count bit-identical while skipping exact adjacency work. Sketched
// mode closes every partial embedding with a sketch intersection
// estimate (Listings 1/2 generalized) and reports the generalized
// Thm VII.1 bound where the theory provides one (pairwise-closing
// plans on BF/kH/1H; tree-closing plans are exact by construction).
type PatternCount struct {
	P     *pattern.Pattern
	Mode  Mode
	Prune bool
}

// Name implements Kernel.
func (PatternCount) Name() string { return "pattern" }

func (k PatternCount) run(ctx context.Context, s *Session) (Result, error) {
	if k.P == nil {
		return Result{}, fmt.Errorf("session: pattern kernel needs a pattern (see pattern.Parse)")
	}
	if !k.Mode.valid() {
		return Result{}, errMode("pattern", k.Mode)
	}
	pl, err := pattern.Compile(k.P)
	if err != nil {
		return Result{}, err
	}
	switch k.Mode {
	case Exact:
		var pg *core.PG
		if k.Prune {
			if pg, err = s.PG(ctx); err != nil {
				return Result{}, err
			}
		}
		n, st, err := pattern.CountExact(ctx, s.st.g, pl, pg, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		res := Result{Mode: Exact, Value: float64(n), PatternStats: &st}
		if pg != nil {
			res.Kind = pg.Cfg.Kind
		}
		return res, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		est, st, err := pattern.CountEstimate(ctx, s.st.g, pl, pg, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		res := Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: est, PatternStats: &st}
		_, bsp := obs.StartSpan(ctx, "bound/pattern")
		res.Bound, res.Confidence = s.patternBound(pl, st, pg)
		bsp.End()
		return res, nil
	}
	return Result{}, errMode("pattern", k.Mode)
}

// patternBound evaluates the generalized Thm VII.1 deviation for one
// estimate run. Only pairwise closing estimators carry the theory:
// plans that closed through IntCard3 (triple back-edges) or made no
// estimator calls at all report no bound.
func (s *Session) patternBound(pl *pattern.Plan, st pattern.Stats, pg *core.PG) (bound, conf float64) {
	const confidence = 0.95
	if st.EstPairs == 0 || st.EstTriples > 0 {
		return 0, 0
	}
	switch pg.Cfg.Kind {
	case core.BF:
		gm := s.Moments()
		if t, valid := estimator.PatternDeviationBF(st.EstPairs, int64(pl.RelaxF),
			gm.MaxDegree, pg.Cfg.BloomBits, pg.Cfg.NumHashes, confidence); valid {
			return t, confidence
		}
	case core.KHash, core.OneHash:
		return estimator.PatternDeviationMinHash(st.SumSizes, st.EstPairs,
			int64(pl.RelaxF), pg.Cfg.K, confidence), confidence
	}
	return 0, 0
}

// KClique is the k-clique counting kernel (Listing 2 and its
// generalization); K = 4 runs the paper's reformulated 4-clique path.
// Sketched counting requires Bloom filters for K != 4.
type KClique struct {
	K    int
	Mode Mode
}

// Name implements Kernel.
func (KClique) Name() string { return "kclique" }

func (k KClique) run(ctx context.Context, s *Session) (Result, error) {
	if k.K < 3 {
		return Result{}, fmt.Errorf("session: kclique needs K >= 3, got %d", k.K)
	}
	if !k.Mode.valid() {
		// Reject before the orientation build: a misconfigured request
		// must not pay (or cache) any work.
		return Result{}, errMode("kclique", k.Mode)
	}
	o, err := s.Oriented(ctx)
	if err != nil {
		return Result{}, err
	}
	switch k.Mode {
	case Exact:
		var ck int64
		if k.K == 4 {
			ck, err = mining.Exact4CliqueCtx(ctx, o, s.cfg.workers)
		} else {
			ck, err = mining.ExactKCliqueCtx(ctx, o, k.K, s.cfg.workers)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Exact, Value: float64(ck)}, nil
	case Sketched:
		pg, err := s.OrientedPG(ctx)
		if err != nil {
			return Result{}, err
		}
		var est float64
		if k.K == 4 {
			est, err = mining.PG4CliqueCtx(ctx, o, pg, s.cfg.workers)
		} else {
			est, err = mining.PGKCliqueCtx(ctx, o, pg, k.K, s.cfg.workers)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: est}, nil
	}
	return Result{}, errMode("kclique", k.Mode)
}

// VertexSim scores one vertex pair with a Listing 3 similarity measure.
type VertexSim struct {
	U, V    uint32
	Measure mining.Measure
	Mode    Mode
}

// Name implements Kernel.
func (VertexSim) Name() string { return "similarity" }

func (k VertexSim) run(ctx context.Context, s *Session) (Result, error) {
	if err := s.checkVertex(k.U); err != nil {
		return Result{}, err
	}
	if err := s.checkVertex(k.V); err != nil {
		return Result{}, err
	}
	if err := checkMeasure(k.Measure); err != nil {
		return Result{}, err
	}
	switch k.Mode {
	case Exact:
		return Result{Mode: Exact, Value: mining.ExactSimilarity(s.st.g, k.U, k.V, k.Measure)}, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		v := mining.PGSimilarity(s.st.g, pg, k.U, k.V, k.Measure)
		return Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: v}, nil
	}
	return Result{}, errMode("similarity", k.Mode)
}

// JarvisPatrick is the Listing 4 clustering kernel: edges scoring above
// Tau survive, clusters are the connected components of the kept graph.
type JarvisPatrick struct {
	Measure mining.Measure
	Tau     float64
	Mode    Mode
}

// Name implements Kernel.
func (JarvisPatrick) Name() string { return "cluster" }

func (k JarvisPatrick) run(ctx context.Context, s *Session) (Result, error) {
	if err := checkMeasure(k.Measure); err != nil {
		return Result{}, err
	}
	switch k.Mode {
	case Exact:
		c, err := mining.JarvisPatrickExactCtx(ctx, s.st.g, k.Measure, k.Tau, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Exact, Value: float64(c.NumClusters), Clusters: c}, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		c, err := mining.JarvisPatrickPGCtx(ctx, s.st.g, pg, k.Measure, k.Tau, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: float64(c.NumClusters), Clusters: c}, nil
	}
	return Result{}, errMode("cluster", k.Mode)
}

// LinkPred is the Listing 5 link-prediction harness: RemoveFrac of the
// edges are hidden (0 means the standard 10%), candidates are scored on
// the sparsified graph, and the recovery efficiency is reported. The
// Session's seed drives the edge removal, so exact and sketched runs of
// one Session hide the same edges.
type LinkPred struct {
	Measure    mining.Measure
	RemoveFrac float64
	Mode       Mode
}

// Name implements Kernel.
func (LinkPred) Name() string { return "linkpred" }

func (k LinkPred) run(ctx context.Context, s *Session) (Result, error) {
	if err := checkMeasure(k.Measure); err != nil {
		return Result{}, err
	}
	frac := k.RemoveFrac
	if frac == 0 {
		frac = 0.1
	}
	if frac < 0 || frac > 1 {
		return Result{}, fmt.Errorf("session: linkpred remove fraction %v outside (0,1]", frac)
	}
	var pgCfg *core.Config
	switch k.Mode {
	case Exact:
	case Sketched:
		cfg := s.coreConfig()
		pgCfg = &cfg
	default:
		return Result{}, errMode("linkpred", k.Mode)
	}
	r, err := mining.EvaluateLinkPredictionCtx(ctx, s.st.g, k.Measure, frac, s.cfg.seed, pgCfg, s.cfg.workers)
	if err != nil {
		return Result{}, err
	}
	res := Result{Mode: k.Mode, Value: r.Efficiency, LinkPred: r}
	if k.Mode == Sketched {
		res.Kind = s.cfg.kind
	}
	return res, nil
}

// LocalTC counts the triangles through one vertex — the §III-A spam /
// community signal, served per-vertex by the online engine.
type LocalTC struct {
	U    uint32
	Mode Mode
}

// Name implements Kernel.
func (LocalTC) Name() string { return "localtc" }

func (k LocalTC) run(ctx context.Context, s *Session) (Result, error) {
	if err := s.checkVertex(k.U); err != nil {
		return Result{}, err
	}
	g := s.st.g
	nv := g.Neighbors(k.U)
	switch k.Mode {
	case Exact:
		var c int64
		for _, u := range nv {
			c += int64(graph.IntersectCount(nv, g.Neighbors(u)))
		}
		return Result{Mode: Exact, Value: float64(c / 2)}, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		var c float64
		if len(nv) > 0 {
			c = pg.IntCardSum(k.U, nv, make([]int32, len(nv)))
		}
		return Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: c / 2}, nil
	}
	return Result{}, errMode("localtc", k.Mode)
}

// LocalTCAll computes the triangles through every vertex; Locals carries
// the per-vertex counts and Value their sum over 3 (the implied global
// triangle count).
type LocalTCAll struct {
	Mode Mode
}

// Name implements Kernel.
func (LocalTCAll) Name() string { return "localtc-all" }

func (k LocalTCAll) run(ctx context.Context, s *Session) (Result, error) {
	var locals []float64
	res := Result{Mode: k.Mode}
	switch k.Mode {
	case Exact:
		counts, err := mining.LocalTCCtx(ctx, s.st.g, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		locals = make([]float64, len(counts))
		for i, c := range counts {
			locals[i] = float64(c)
		}
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		locals, err = mining.PGLocalTCCtx(ctx, s.st.g, pg, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		res.Kind = pg.Cfg.Kind
	default:
		return Result{}, errMode("localtc-all", k.Mode)
	}
	var sum float64
	for _, c := range locals {
		sum += c
	}
	res.Locals = locals
	res.Value = sum / 3 // every triangle is local to exactly three vertices
	return res, nil
}

// ClusteringCoeff computes the average local clustering coefficient.
type ClusteringCoeff struct {
	Mode Mode
}

// Name implements Kernel.
func (ClusteringCoeff) Name() string { return "cc" }

func (k ClusteringCoeff) run(ctx context.Context, s *Session) (Result, error) {
	switch k.Mode {
	case Exact:
		cc, err := mining.LocalClusteringCoefficientCtx(ctx, s.st.g, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Exact, Value: cc}, nil
	case Sketched:
		pg, err := s.PG(ctx)
		if err != nil {
			return Result{}, err
		}
		cc, err := mining.PGLocalClusteringCoefficientCtx(ctx, s.st.g, pg, s.cfg.workers)
		if err != nil {
			return Result{}, err
		}
		return Result{Mode: Sketched, Kind: pg.Cfg.Kind, Value: cc}, nil
	}
	return Result{}, errMode("cc", k.Mode)
}

// DistTC runs triangle counting over the simulated distributed-memory
// cluster of internal/dist; Ship selects the §VIII-F wire protocol (the
// mode follows it: ShipNeighborhoods is exact, ShipSketches estimates
// over the Session's oriented sketches). Net carries the byte accounting.
type DistTC struct {
	Nodes int
	Ship  dist.Mode
}

// Name implements Kernel.
func (DistTC) Name() string { return "dist-tc" }

func (k DistTC) run(ctx context.Context, s *Session) (Result, error) {
	o, err := s.Oriented(ctx)
	if err != nil {
		return Result{}, err
	}
	res := Result{Mode: Exact}
	var pg *core.PG
	if k.Ship == dist.ShipSketches {
		if pg, err = s.OrientedPG(ctx); err != nil {
			return Result{}, err
		}
		res.Mode, res.Kind = Sketched, pg.Cfg.Kind
	}
	r, err := dist.TCCtx(ctx, s.st.g, o, pg, k.Nodes, k.Ship)
	if err != nil {
		return Result{}, err
	}
	res.Value, res.Net = r.Count, &r.Net
	return res, nil
}

// DistSim runs distributed mean edge similarity over the simulated
// cluster; only the counting measures are distributable (§VIII-F).
type DistSim struct {
	Nodes   int
	Ship    dist.Mode
	Measure mining.Measure
}

// Name implements Kernel.
func (DistSim) Name() string { return "dist-sim" }

func (k DistSim) run(ctx context.Context, s *Session) (Result, error) {
	if err := checkMeasure(k.Measure); err != nil {
		return Result{}, err
	}
	res := Result{Mode: Exact}
	var pg *core.PG
	if k.Ship == dist.ShipSketches {
		var err error
		if pg, err = s.PG(ctx); err != nil {
			return Result{}, err
		}
		res.Mode, res.Kind = Sketched, pg.Cfg.Kind
	}
	r, err := dist.SimCtx(ctx, s.st.g, pg, k.Nodes, k.Ship, k.Measure)
	if err != nil {
		return Result{}, err
	}
	res.Value, res.Net = r.Count, &r.Net
	return res, nil
}
