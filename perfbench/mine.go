package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/kernels"
	"probgraph/internal/mining"
	"probgraph/internal/obs"
	"probgraph/internal/pattern"
	"probgraph/internal/session"
)

// mine-kron: the paper's offline use. One Session over a seeded
// Kronecker graph runs TC exact, TC BF, 4-clique BF, Jarvis–Patrick BF
// and the diamond-pattern estimate, interleaved; a kernel call is the
// workload's operation. Nothing here touches serve, HTTP or stream.
const (
	mineScale      = 11
	mineEdgeFactor = 16
	sketchSeed     = 7 // sketch hash seed; inputs vary with the workload seed
	jpTau          = 0.2
)

type mineRef struct{ tc, c4, dia int64 }

func runMine(e *env) (*outcome, error) {
	n, edges := kronEdges(mineScale, mineEdgeFactor, e.seed)
	r := newRefGraph(n, edges)
	want := mineRef{tc: r.triangles(), c4: r.fourCliques(), dia: r.diamonds()}
	fmt.Printf("mine-kron: kronecker scale %d, n=%d, m=%d, triangles %d, 4-cliques %d, diamonds %d\n",
		mineScale, n, r.edges(), want.tc, want.c4, want.dia)
	out := newOutcome()
	e2e, err := mineMeasure(e, n, edges, want, out, nil)
	if err != nil {
		return nil, err
	}
	if e.trace {
		tr := obs.NewTracer(0, 1024)
		traced, err := mineMeasure(e, n, edges, want, out, tr)
		if err != nil {
			return nil, err
		}
		traceOverhead(out, e2e, traced)
	}
	out.e2e = e2e
	return out, nil
}

// mineMeasure runs the set-ups and the timed rounds once, untraced when
// tr is nil. With a tracer it also fills the per-layer ledger.
func mineMeasure(e *env, n int, edges []graph.Edge, want mineRef, out *outcome, tr *obs.Tracer) (map[string]float64, error) {
	ctx := obs.WithTracer(context.Background(), tr)
	var (
		sess               *session.Session
		setup, csr, orient []float64
		pgb                []float64
		before, after      uint64
	)
	for i := 0; i < setupRepeats; i++ {
		if i == setupRepeats-1 {
			sess = nil
			before = liveHeap()
		}
		t0 := time.Now()
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s, err := session.New(g, session.WithKind(core.BF), session.WithSeed(sketchSeed), session.WithWorkers(e.procs))
		if err != nil {
			return nil, err
		}
		if _, err := s.Oriented(ctx); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := s.PG(ctx); err != nil {
			return nil, err
		}
		if _, err := s.OrientedPG(ctx); err != nil {
			return nil, err
		}
		t3 := time.Now()
		if _, err := s.Run(ctx, session.TC{Mode: session.Sketched}); err != nil {
			return nil, err
		}
		t4 := time.Now()
		setup = append(setup, seconds(t4.Sub(t0)))
		csr = append(csr, seconds(t1.Sub(t0)))
		orient = append(orient, seconds(t2.Sub(t1)))
		pgb = append(pgb, seconds(t3.Sub(t2)))
		sess = s
	}
	after = liveHeap()

	diamond := pattern.Diamond()
	kernelsRun := []struct {
		name string
		k    session.Kernel
	}{
		{"tc_exact", session.TC{Mode: session.Exact}},
		{"tc_bf", session.TC{Mode: session.Sketched}},
		{"clique4_bf", session.KClique{K: 4, Mode: session.Sketched}},
		{"jp_bf", session.JarvisPatrick{Measure: mining.Jaccard, Tau: jpTau, Mode: session.Sketched}},
		{"diamond_bf", session.PatternCount{P: diamond, Mode: session.Sketched}},
	}
	// Each step runs the kernel with the least time spent so far, so
	// every kernel gets an equal share of the run and cheap kernels
	// collect many samples while the calls stay interleaved.
	perKernel := make(map[string][]float64, len(kernelsRun))
	spent := make([]time.Duration, len(kernelsRun))
	first := map[string]session.Result{}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		i := 0
		for j := range spent {
			if spent[j] < spent[i] {
				i = j
			}
		}
		k := kernelsRun[i]
		t0 := time.Now()
		res, err := sess.Run(ctx, k.k)
		d := time.Since(t0)
		spent[i] += d
		perKernel[k.name] = append(perKernel[k.name], seconds(d))
		switch {
		case err != nil:
			out.check(false, "mine-kron: %s: %v", k.name, err)
			continue
		case k.name == "tc_exact":
			out.check(res.Count() == want.tc, "mine-kron: exact TC %d, reference %d", res.Count(), want.tc)
		default:
			out.check(true, "")
		}
		if _, ok := first[k.name]; !ok {
			first[k.name] = res
		}
	}
	// The operation's latency is the geometric mean over the kernels of
	// each kernel's windowed quantile, so a change to any one kernel
	// moves it by the same factor whatever that kernel's share of the
	// run. A kernel with too few calls for q to have ten calls beyond it
	// contributes its highest quantile that does (tailQuantile).
	geo := func(q float64) float64 {
		lg := 0.0
		for _, k := range kernelsRun {
			xs := perKernel[k.name]
			lg += math.Log(windowQuantile(xs, min(q, tailQuantile(len(xs)))) * 1e3)
		}
		return math.Exp(lg / float64(len(kernelsRun)))
	}
	c4, err := sess.Run(ctx, session.KClique{K: 4, Mode: session.Exact})
	out.check(err == nil && c4.Count() == want.c4, "mine-kron: exact 4-clique %d (err %v), reference %d", c4.Count(), err, want.c4)

	relTC := relErr(first["tc_bf"].Value, float64(want.tc))
	relC4 := relErr(first["clique4_bf"].Value, float64(want.c4))
	relDia := relErr(first["diamond_bf"].Value, float64(want.dia))
	tcBF := median(perKernel["tc_bf"])
	e2e := map[string]float64{
		"setup_s":    median(setup),
		"heap_mb":    heapDeltaMB(before, after),
		"p50_ms":     geo(0.50),
		"p90_ms":     geo(0.90),
		"rate_per_s": float64(sess.Graph().NumEdges()) / tcBF,
		"rel_err":    (relTC + relC4 + relDia) / 3,
	}
	fmt.Printf("mine-kron: calls per kernel:")
	for _, k := range kernelsRun {
		fmt.Printf(" %s %d (p50 %.3f ms)", k.name, len(perKernel[k.name]), median(perKernel[k.name])*1e3)
	}
	fmt.Printf("; %d set-ups (%s)\n", len(setup), traceLabel(tr))
	if tr == nil {
		return e2e, nil
	}

	l := out.layer
	l["graph.csr_build_s"] = median(csr)
	l["graph.orient_s"] = median(orient)
	l["core.pg_build_s"] = median(pgb)
	pg, _ := sess.PG(ctx)
	opg, _ := sess.OrientedPG(ctx)
	l["core.sketch_mb"] = float64(pg.MemoryBytes()+opg.MemoryBytes()) / mib
	for _, k := range kernelsRun {
		l["mining."+k.name+"_s"] = median(perKernel[k.name])
	}
	l["mining.p99_ms"] = geo(0.99)
	l["mining.tc_speedup"] = l["mining.tc_exact_s"] / l["mining.tc_bf_s"]
	l["mining.tc_bf_rel_err"] = relTC
	l["mining.clique4_bf_rel_err"] = relC4
	l["mining.diamond_bf_rel_err"] = relDia
	if st := first["diamond_bf"].PatternStats; st != nil {
		l["pattern.candidates"] = float64(st.Candidates)
		l["pattern.embeddings"] = float64(st.Embeddings)
		l["pattern.est_pairs"] = float64(st.EstPairs)
		l["pattern.est_triples"] = float64(st.EstTriples)
	}
	if err := kernelLayers(ctx, sess, want.tc, tcBF, e.procs, out); err != nil {
		return nil, err
	}
	return e2e, nil
}

// kernelLayers replays TC's row pairs on one goroutine through the
// kernel layer and times TC-BF at one worker against the session's
// worker count.
func kernelLayers(ctx context.Context, sess *session.Session, wantTC int64, tcBF float64, procs int, out *outcome) error {
	l := out.layer
	g := sess.Graph()
	pg, err := sess.PG(ctx)
	if err != nil {
		return err
	}
	o, err := sess.Oriented(ctx)
	if err != nil {
		return err
	}
	var pairs int64
	var bfTimes []float64
	for rep := 0; rep < 3; rep++ {
		pairs = 0
		var sink int
		t0 := time.Now()
		for u := 0; u < g.NumVertices(); u++ {
			ru := pg.BloomRow(uint32(u))
			for _, v := range g.Neighbors(uint32(u)) {
				if v > uint32(u) {
					sink += kernels.AndCount(ru, pg.BloomRow(v))
					pairs++
				}
			}
		}
		bfTimes = append(bfTimes, seconds(time.Since(t0)))
		out.check(sink > 0, "kernels: TC-BF replay ANDed no bits")
	}
	words := pairs * int64(pg.RowWords())
	l["kernels.tc_bf_words"] = float64(words)
	l["kernels.tc_bf_bytes"] = float64(2 * 8 * words)
	l["kernels.tc_bf_replay_s"] = median(bfTimes)

	var exTimes []float64
	var merged int64
	for rep := 0; rep < 3; rep++ {
		var tc int64
		merged = 0
		t0 := time.Now()
		for v := 0; v < o.NumVertices(); v++ {
			nv := o.NPlus(uint32(v))
			for _, u := range nv {
				nu := o.NPlus(u)
				tc += int64(kernels.IntersectCount(nv, nu))
				merged += int64(len(nv) + len(nu))
			}
		}
		exTimes = append(exTimes, seconds(time.Since(t0)))
		out.check(tc == wantTC, "kernels: exact TC replay %d, reference %d", tc, wantTC)
	}
	l["kernels.tc_exact_replay_s"] = median(exTimes)
	l["kernels.tc_exact_merge_elems"] = float64(merged)

	one, err := sess.With(session.WithWorkers(1))
	if err != nil {
		return err
	}
	var oneTimes []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		_, err := one.Run(ctx, session.TC{Mode: session.Sketched})
		oneTimes = append(oneTimes, seconds(time.Since(t0)))
		out.check(err == nil, "par: 1-worker TC-BF: %v", err)
	}
	l["par.tc_bf_1w_s"] = median(oneTimes)
	l["par.tc_bf_efficiency"] = l["par.tc_bf_1w_s"] / (float64(procs) * tcBF)
	return nil
}

func traceLabel(tr *obs.Tracer) string {
	if tr == nil {
		return "untraced"
	}
	total, _ := tr.Totals()
	return fmt.Sprintf("traced, %d root spans", total)
}
