package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/pgio"
	"probgraph/internal/serve"
	"probgraph/internal/stream"
)

// ingest-churn: writes beside reads. A DynamicGraph warm-started from a
// .pg artifact sits behind POST /v1/ingest through a stream.Feeder, so
// every batch is applied, frozen into a new epoch and hot-swapped into
// the engine while serve-hot-style queries keep arriving. Its operation
// is the query under churn; its capacity is ingested edges per second.
const (
	ingestScale     = 13
	ingestBatchRate = 10   // batches/s in the fixed-rate phase
	ingestAdd       = 150  // edges added per batch
	ingestDel       = 50   // edges deleted per batch
	ingestChecked   = 512  // final-epoch answers checked against the replay
	ingestCapShare  = 0.35 // share of -seconds with batches back to back
)

func runIngest(e *env) (*outcome, error) {
	n, edges := kronEdges(ingestScale, hotCfg.edgeFactor, e.seed)
	path, err := writeArtifact(e, "ingest-churn", n, edges)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		path:  path,
		qs:    genQueries(e.seed, queryStreamLen, n, hotCfg.zipf, churnMix),
		probe: pickProbe(e.seed, n, hotCfg.zipf),
	}
	base := newEdgeModel(n, edges)
	fmt.Printf("ingest-churn: kronecker scale %d, n=%d, m=%d; queries back to back beside %d-edge batches (+%d/-%d) at %d/s, then back to back\n",
		ingestScale, n, len(base.list), ingestAdd+ingestDel, ingestAdd, ingestDel, ingestBatchRate)
	out := newOutcome()
	e2e, err := ingestMeasure(e, n, edges, in, out, nil)
	if err != nil {
		return nil, err
	}
	if e.trace {
		traced, err := ingestMeasure(e, n, edges, in, out, obs.NewTracer(0, 8192))
		if err != nil {
			return nil, err
		}
		traceOverhead(out, e2e, traced)
	}
	out.e2e = e2e
	return out, nil
}

// ingestBoot is one running streaming server.
type ingestBoot struct {
	*booted
	dyn    *stream.DynamicGraph
	feeder *stream.Feeder
}

// bootIngest is the measured set-up: map the artifact, build the
// DynamicGraph from it (the mapping is released once it is copied),
// freeze the first epoch, and serve it with ingest enabled.
func bootIngest(e *env, path string, tr, ingestTr *obs.Tracer) (*ingestBoot, time.Duration, error) {
	t0 := time.Now()
	m, err := pgio.Mmap(path)
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(t0)
	cfg, err := serve.ConfigFromArtifact(m.A, serve.SnapshotConfig{Workers: e.procs})
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	dyn, err := stream.NewWith(m.A.G, cfg, m.A.PGs)
	m.Close()
	if err != nil {
		return nil, 0, err
	}
	snap, err := dyn.Freeze()
	if err != nil {
		return nil, 0, err
	}
	b, err := serveEngine(e, snap, tr)
	if err != nil {
		return nil, 0, err
	}
	ib := &ingestBoot{booted: b, dyn: dyn, feeder: stream.NewFeeder(dyn, b.eng)}
	if ingestTr != nil {
		ib.feeder.SetTracer(ingestTr)
	}
	b.eng.EnableIngest(ib.feeder)
	if _, err := b.cl.query(query{op: "similarity", u: 0, v: 1}, false); err != nil {
		b.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return ib, open, nil
}

// writer sends the generated batches in order from one goroutine (the
// Feeder serializes batches anyway, and one writer keeps the model's
// order the server's order).
type writer struct {
	cl  *client
	gen *batchGen

	edges   int // edge updates the server reported applied
	batches int // batches acknowledged
}

func (w *writer) send() error {
	add, del := w.gen.next(ingestAdd, ingestDel)
	res, err := w.cl.ingest(add, del)
	if err != nil {
		return err
	}
	w.batches++
	w.edges += res.Added + res.Removed
	if res.Added != len(add) || res.Removed != len(del) {
		return fmt.Errorf("batch applied +%d/-%d, model says +%d/-%d: %w", res.Added, res.Removed, len(add), len(del), errWrongAnswer)
	}
	return nil
}

func ingestMeasure(e *env, n int, edges []graph.Edge, in *serveInputs, out *outcome, tr *obs.Tracer) (map[string]float64, error) {
	var ingestTr *obs.Tracer
	if tr != nil {
		ingestTr = obs.NewTracer(0, 4096)
	}
	b, su, err := repeatBoot(func() (*ingestBoot, time.Duration, error) { return bootIngest(e, in.path, tr, ingestTr) })
	if err != nil {
		return nil, err
	}
	defer b.close()
	if b.tq != nil {
		b.tq.take(tr) // drop the set-up traffic
	}

	model := newEdgeModel(n, edges)
	w := &writer{cl: b.cl, gen: newBatchGen(e.seed, model, ingestScale)}
	qWorkers := max(1, e.procs-1) // one client goroutine is the writer
	var cur cursor

	// reads runs the query side for d: qWorkers connections back to back.
	reads := func(d time.Duration, rec *phaseRec) *loadRun {
		run, _ := closedLoop(d, qWorkers, rec.sender(b.cl, in.qs, cur.take(0), false))
		cur.take(run.sent)
		return run
	}
	// churn runs the reads beside batches arriving on schedule.
	churn := func(dur float64, rec *phaseRec) (queries, batches *loadRun) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			batches = openLoop(ingestBatchRate, int(ingestBatchRate*dur), 1, time.Second, func(int) error { return w.send() })
		}()
		queries = reads(time.Duration(dur*float64(time.Second)), rec)
		wg.Wait()
		return queries, batches
	}
	wq, wb := churn(warmShare*e.seconds, &phaseRec{})
	out.load(wq, false, "ingest-churn warm-up queries")
	out.load(wb, false, "ingest-churn warm-up batches")
	if b.tq != nil {
		b.tq.take(tr)
	}

	// Fixed-rate phase: the batches' schedule is fixed, the reads are
	// back to back.
	rec := &phaseRec{}
	st0, ds0, mem0, wire0 := b.eng.Stats(), b.dyn.Stats(), readMem(), b.cl.wire.Load()
	fixed, batches := churn(fixedShare*e.seconds, rec)
	md, st1, ds1, wire := memSince(mem0), b.eng.Stats(), b.dyn.Stats(), b.cl.wire.Load()-wire0
	var eng engineRec
	if b.tq != nil {
		eng = b.tq.take(tr)
	}
	out.load(fixed, false, "ingest-churn fixed-rate queries")
	out.load(batches, true, "ingest-churn fixed-rate batches")

	// Capacity: batches back to back beside the reads; the sustained
	// rate is the median over satWindows windows of the edge updates
	// applied and published per second.
	var rates []float64
	capBatches := 0
	for i := 0; i < satWindows; i++ {
		d := time.Duration(ingestCapShare / satWindows * e.seconds * float64(time.Second))
		edges0 := w.edges
		var run *loadRun
		var r float64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, r = closedLoop(d, 1, func(int) error { return w.send() })
		}()
		out.load(reads(d, &phaseRec{}), false, "ingest-churn capacity-window queries")
		wg.Wait()
		out.load(run, false, "ingest-churn capacity-window batches")
		capBatches += run.sent
		rates = append(rates, r*float64(w.edges-edges0)/float64(max(1, run.sent)))
	}
	capRate := median(rates)
	fmt.Printf("ingest-churn: fixed: %d queries p50 %.3f ms p99 %.3f ms, %d batches p99 %.2f ms; back to back: %.0f edges/s over %d batches (%s)\n",
		fixed.sent, fixed.windowed(0.5), fixed.windowed(0.99), batches.sent, batches.p(0.99), capRate, capBatches, traceLabel(tr))

	// Checks on the final epoch: the served graph against the model, a
	// block of answers against the no-cache, no-wait replay, and the
	// accuracy probe against the model's exact local triangle counts.
	final := b.eng.Stats()
	out.check(final.Edges == len(model.list), "ingest-churn: final epoch has %d edges, model %d", final.Edges, len(model.list))
	for i, v := range in.probe {
		if i == ingestChecked/2 {
			break
		}
		r, err := b.cl.query(query{op: "neighbors", u: v}, true)
		want := make([]uint32, 0, len(model.adj[v]))
		for u := range model.adj[v] {
			want = append(want, u)
		}
		slices.Sort(want)
		out.check(err == nil && slices.Equal(r.res.Neighbors, want), "ingest-churn: neighbors of %d differ from the model (err %v)", v, err)
	}
	nowait := serve.New(b.eng.Snapshot(), serve.Options{Workers: e.procs, CacheSize: -1, MaxDelay: -1})
	defer nowait.Close()
	var samples []sampled
	base := cur.take(ingestChecked)
	for i := range ingestChecked {
		q := in.qs[(base+i)%len(in.qs)]
		r, err := b.cl.query(q, true)
		out.check(err == nil, "ingest-churn: final-epoch %s %d: %v", q.op, q.u, err)
		if err == nil {
			samples = append(samples, sampled{q, r.res})
		}
	}
	checkSamples(out, nowait, samples, "ingest-churn")
	relErr, err := probeAccuracy(out, nowait, in.probe, refFromModel(model).localTriangles)
	if err != nil {
		return nil, err
	}

	e2e := map[string]float64{
		"setup_s":    median(su.times),
		"heap_mb":    su.heapMB,
		"p50_ms":     fixed.windowed(0.50),
		"p90_ms":     fixed.windowed(0.90),
		"rate_per_s": capRate,
		"rel_err":    relErr,
	}
	if tr == nil {
		return e2e, nil
	}
	l := out.layer
	l["pgio.open_s"] = median(su.opens)
	engineLayers(out, eng, nowait, st0, st1)
	q := float64(fixed.sent)
	l["serve.allocs_per_query"] = float64(md.mallocs) / q
	l["serve.alloc_bytes_per_query"] = float64(md.bytes) / q
	l["serve.gc_pause_ms"] = float64(md.pauseNS) / 1e6
	l["http.self_p50_us"] = quantile(rec.selfUS, 0.50)
	l["http.self_p99_us"] = quantile(rec.selfUS, 0.99)
	l["http.bytes_per_query"] = float64(wire) / float64(fixed.sent+batches.sent)
	l["stream.ingest_p50_ms"] = batches.p(0.50)
	l["stream.ingest_p99_ms"] = batches.p(0.99)
	l["load.closed_p99_ms"] = fixed.windowed(0.99)
	l["stream.apply_ms"] = quantile(spanStats(ingestTr, "ingest/apply"), 0.50) / 1e3
	l["stream.freeze_ms"] = quantile(spanStats(ingestTr, "stream/freeze"), 0.50) / 1e3
	l["stream.swap_ms"] = quantile(spanStats(ingestTr, "ingest/swap"), 0.50) / 1e3
	if db := ds1.Batches - ds0.Batches; db > 0 {
		l["stream.rows_resketched"] = float64(ds1.RowsResketched-ds0.RowsResketched) / float64(db)
	}
	l["stream.batches"] = float64(w.batches)
	return e2e, nil
}
