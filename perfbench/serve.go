package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/serve"
)

// serve-hot and serve-cold: pgserve's HTTP stack over loopback on a
// snapshot opened zero-copy from a prebuilt .pg artifact. Queries
// arrive open-loop at a fixed rate (p50/p99); closed-loop clients then
// measure the sustained rate, and a bisection over offered rates finds
// the highest one whose p99 stays within sloMS.
type serveCfg struct {
	name       string
	scale      int
	edgeFactor int
	zipf       float64 // > 1: Zipf vertex picks; else uniform
	mix        []mixEntry
	rate       float64 // fixed offered rate of the latency phase, q/s
}

var (
	hotCfg  = serveCfg{name: "serve-hot", scale: 12, edgeFactor: 16, zipf: 1.2, mix: defaultMix, rate: 1000}
	coldCfg = serveCfg{name: "serve-cold", scale: 13, edgeFactor: 8, mix: coldMix, rate: 500}
)

const (
	queryStreamLen = 1 << 19
	sampleEvery    = 4    // every 4th fixed-rate answer is checked bit for bit
	probeVertices  = 2048 // Zipf draws of the accuracy probe
	// Shares of -seconds: warm-up, fixed-rate latency phase, closed-loop
	// saturation windows, and the SLO bisection's rungs together.
	warmShare  = 0.10
	fixedShare = 0.40
	satShare   = 0.30
	rungShare  = 0.12
	satWindows = 5
	capSteps   = 4
)

func runServeHot(e *env) (*outcome, error)  { return runServe(e, hotCfg) }
func runServeCold(e *env) (*outcome, error) { return runServe(e, coldCfg) }

type serveInputs struct {
	path  string
	ref   *refGraph
	qs    []query
	probe []uint32
}

func runServe(e *env, c serveCfg) (*outcome, error) {
	n, edges := kronEdges(c.scale, c.edgeFactor, e.seed)
	path, err := writeArtifact(e, c.name, n, edges)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		path:  path,
		ref:   newRefGraph(n, edges),
		qs:    genQueries(e.seed, queryStreamLen, n, c.zipf, c.mix),
		probe: pickProbe(e.seed, n, c.zipf),
	}
	fmt.Printf("%s: kronecker scale %d, n=%d, m=%d, zipf %.1f, fixed rate %.0f q/s\n",
		c.name, c.scale, n, in.ref.edges(), c.zipf, c.rate)
	out := newOutcome()
	e2e, err := serveMeasure(e, c, in, out, nil)
	if err != nil {
		return nil, err
	}
	if e.trace {
		traced, err := serveMeasure(e, c, in, out, obs.NewTracer(0, 8192))
		if err != nil {
			return nil, err
		}
		traceOverhead(out, e2e, traced)
	}
	out.e2e = e2e
	return out, nil
}

// writeArtifact builds the BF snapshot of the generated graph and saves
// it as a .pg artifact — input preparation, not measured.
func writeArtifact(e *env, name string, n int, edges []graph.Edge) (string, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return "", err
	}
	snap, err := serve.Open(g, serve.SnapshotConfig{Kinds: []core.Kind{core.BF}, Seed: sketchSeed, Workers: e.procs})
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.dir, name+".pg")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := snap.Save(f); err != nil {
		f.Close()
		return "", fmt.Errorf("saving artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// pickProbe returns the accuracy probe's vertices: every vertex when
// picks are uniform, else the distinct vertices of probeVertices draws
// from the workload's Zipf distribution.
func pickProbe(seed uint64, n int, zipf float64) []uint32 {
	if zipf <= 1 {
		all := make([]uint32, n)
		for v := range all {
			all[v] = uint32(v)
		}
		return all
	}
	p := newPicker(newRand(seed, streamProbe), n, zipf)
	seen := map[uint32]bool{}
	var out []uint32
	for i := 0; i < probeVertices; i++ {
		if v := p.pick(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// booted is one running server over one mapped artifact.
type booted struct {
	eng     *serve.Engine
	mapping io.Closer
	srv     *server
	cl      *client
	tq      *timedQuerier
}

func (b *booted) close() {
	b.cl.close()
	b.srv.stop()
	b.eng.Close()
	if b.mapping != nil {
		b.mapping.Close()
	}
}

// serveEngine starts the engine, the Querier (timed when traced) and
// the HTTP server over a snapshot.
func serveEngine(e *env, snap *serve.Snapshot, tr *obs.Tracer) (*booted, error) {
	b := &booted{mapping: snap.DetachCloser(), eng: serve.New(snap, serve.Options{Workers: e.procs})}
	var qr serve.Querier = b.eng
	if tr != nil {
		b.tq = &timedQuerier{eng: b.eng, tr: tr}
		qr = b.tq
	}
	srv, err := startServer(b.eng, qr)
	if err != nil {
		b.eng.Close()
		return nil, err
	}
	b.srv = srv
	b.cl = newClient(srv.base, e.procs)
	return b, nil
}

// bootServe is the measured set-up: map the artifact, start the engine
// and listener, and get the first answer over HTTP.
func bootServe(e *env, path string, tr *obs.Tracer) (*booted, time.Duration, error) {
	t0 := time.Now()
	snap, err := serve.OpenArtifactMmap(path, serve.SnapshotConfig{Workers: e.procs})
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(t0)
	b, err := serveEngine(e, snap, tr)
	if err != nil {
		return nil, 0, err
	}
	if _, err := b.cl.query(query{op: "similarity", u: 0, v: 1}, false); err != nil {
		b.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return b, open, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// setupTimes are a run's repeated set-ups and the heap the last one kept.
type setupTimes struct {
	times, opens []float64 // s: whole set-up, and its artifact open
	heapMB       float64
}

// repeatBoot runs the measured set-up setupRepeats times, closing every
// instance but the last, and reads the live heap around the last one.
func repeatBoot[T interface{ close() }](boot func() (T, time.Duration, error)) (T, setupTimes, error) {
	var (
		st     setupTimes
		last   T
		before uint64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			last.close()
		}
		if i == setupRepeats-1 {
			before = liveHeap()
		}
		t0 := time.Now()
		b, open, err := boot()
		if err != nil {
			var zero T
			return zero, st, err
		}
		st.times = append(st.times, seconds(time.Since(t0)))
		st.opens = append(st.opens, seconds(open))
		last = b
	}
	st.heapMB = heapDeltaMB(before, liveHeap())
	return last, st, nil
}

// sampled is a checked answer: the query and what the client got.
type sampled struct {
	q   query
	got serve.Result
}

// phaseRec gathers a load phase's checked answers and, when traced,
// the HTTP layer's own time per request.
type phaseRec struct {
	mu      sync.Mutex
	samples []sampled
	selfUS  []float64
}

// sender returns the open-loop send function over queries base, base+1,
// ... of the stream, checking every sampleEvery-th answer when check is
// set.
func (p *phaseRec) sender(cl *client, qs []query, base int, check bool) func(i int) error {
	return func(i int) error {
		q := qs[(base+i)%len(qs)]
		keep := check && i%sampleEvery == 0
		t0 := time.Now()
		r, err := cl.query(q, keep)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if keep || r.engineNS > 0 {
			p.mu.Lock()
			if keep {
				p.samples = append(p.samples, sampled{q, r.res})
			}
			if r.engineNS > 0 {
				p.selfUS = append(p.selfUS, micros(d)-float64(r.engineNS)/1e3)
			}
			p.mu.Unlock()
		}
		return nil
	}
}

// cursor hands out contiguous blocks of the query stream.
type cursor struct{ next atomic.Int64 }

func (c *cursor) take(n int) int { return int(c.next.Add(int64(n))) - n }

func serveMeasure(e *env, c serveCfg, in *serveInputs, out *outcome, tr *obs.Tracer) (map[string]float64, error) {
	b, su, err := repeatBoot(func() (*booted, time.Duration, error) { return bootServe(e, in.path, tr) })
	if err != nil {
		return nil, err
	}
	defer b.close()
	if b.tq != nil {
		b.tq.take(tr) // drop the set-up traffic
	}

	var cur cursor
	// Warm-up at the fixed rate: caches fill and lazy state settles
	// before anything is timed.
	warmN := int(c.rate * e.seconds * warmShare)
	out.load(openLoop(c.rate, warmN, e.procs, time.Second, (&phaseRec{}).sender(b.cl, in.qs, cur.take(warmN), false)), false, c.name+" warm-up")
	if b.tq != nil {
		b.tq.take(tr)
	}

	// Fixed-rate latency phase.
	fixedN := int(c.rate * e.seconds * fixedShare)
	rec := &phaseRec{}
	st0, mem0, wire0 := b.eng.Stats(), readMem(), b.cl.wire.Load()
	fixed := openLoop(c.rate, fixedN, e.procs, time.Second, rec.sender(b.cl, in.qs, cur.take(fixedN), true))
	md, st1, wire := memSince(mem0), b.eng.Stats(), b.cl.wire.Load()-wire0
	out.load(fixed, true, c.name+" fixed-rate phase")
	var eng engineRec
	if b.tq != nil {
		eng = b.tq.take(tr)
	}

	// Capacity: closed-loop clients keep the server saturated; the
	// sustained rate is the median of satWindows window rates, and their
	// latencies are the end-to-end p50 and p90 (README.md says why). A short
	// bisection between the fixed rate and 1.25× that rate then finds
	// the highest offered rate meeting the p99 SLO (ledger only: it
	// hinges on a tail and moves too much between runs to gate on).
	var rates []float64
	sat := &loadRun{}
	for w := 0; w < satWindows; w++ {
		run, r := closedLoop(time.Duration(satShare/satWindows*e.seconds*float64(time.Second)), e.procs,
			(&phaseRec{}).sender(b.cl, in.qs, cur.take(0), false))
		cur.take(run.sent)
		out.load(run, false, c.name+" saturation window")
		sat.append(run)
		rates = append(rates, r)
	}
	satRate := median(rates)
	rungSec := rungShare * e.seconds / capSteps
	best, rungs := capacitySearch(c.rate, math.Max(1.25*satRate, 1.5*c.rate), capSteps, func(rate float64) *loadRun {
		count := int(rate * rungSec)
		return openLoop(rate, count, e.procs, 100*time.Millisecond, (&phaseRec{}).sender(b.cl, in.qs, cur.take(count), false))
	})
	for _, r := range rungs {
		out.load(r, false, c.name+" capacity rung")
	}
	fmt.Printf("%s: fixed %.0f q/s: %d sent, p50 %.3f ms, p99 %.3f ms; saturated: %.0f q/s, p50 %.3f ms, p99 %.3f ms; max at p99<=%.0fms %.0f q/s (%s)\n",
		c.name, c.rate, fixed.sent, fixed.windowed(0.5), fixed.windowed(0.99), satRate, sat.windowed(0.5), sat.windowed(0.99), sloMS, best, traceLabel(tr))

	// Checks, outside the timed phases: sampled answers against a
	// no-cache, no-wait engine on the same snapshot, and the localtc
	// accuracy probe against the exact reference.
	nowait := serve.New(b.eng.Snapshot(), serve.Options{Workers: e.procs, CacheSize: -1, MaxDelay: -1})
	defer nowait.Close()
	checkSamples(out, nowait, rec.samples, c.name)
	relErr, err := probeAccuracy(out, nowait, in.probe, in.ref.localTriangles)
	if err != nil {
		return nil, err
	}

	e2e := map[string]float64{
		"setup_s":    median(su.times),
		"heap_mb":    su.heapMB,
		"p50_ms":     sat.windowed(0.50),
		"p90_ms":     sat.windowed(0.90),
		"rate_per_s": satRate,
		"rel_err":    relErr,
	}
	if tr == nil {
		return e2e, nil
	}
	l := out.layer
	l["load.max_qps_at_slo"] = best
	l["load.fixed_p50_ms"] = fixed.windowed(0.50)
	l["load.fixed_p99_ms"] = fixed.windowed(0.99)
	l["load.closed_p99_ms"] = sat.windowed(0.99)
	l["pgio.open_s"] = median(su.opens)
	l["pgio.mapped_mb"] = float64(b.eng.Snapshot().MappedBytes) / mib
	engineLayers(out, eng, nowait, st0, st1)
	q := float64(fixed.sent)
	l["serve.allocs_per_query"] = float64(md.mallocs) / q
	l["serve.alloc_bytes_per_query"] = float64(md.bytes) / q
	l["serve.gc_pause_ms"] = float64(md.pauseNS) / 1e6
	l["http.self_p50_us"] = quantile(rec.selfUS, 0.50)
	l["http.self_p99_us"] = quantile(rec.selfUS, 0.99)
	l["http.bytes_per_query"] = float64(wire) / q
	return e2e, nil
}

// load folds one open-loop phase into the attempt counts and, for the
// fixed-rate phase, the load generator's validity metrics. Capacity
// rungs run past saturation on purpose, so their dropped sends are not
// failures.
func (o *outcome) load(r *loadRun, fixed bool, what string) {
	o.attempted += int64(r.sent)
	o.failed += int64(r.errs)
	if r.errs > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%s: %d of %d requests failed", what, r.errs, r.sent))
	}
	if !fixed {
		return
	}
	o.attempted += int64(r.dropped)
	o.failed += int64(r.dropped)
	if r.dropped > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%s: %d requests never sent (generator fell behind)", what, r.dropped))
	}
	o.layer["load.sent"] = float64(r.sent)
	o.layer["load.failed"] = float64(r.errs + r.dropped)
	o.layer["load.lateness_ms"] = quantile(r.late, 0.99)
}

// checkSamples replays each checked answer on the reference engine and
// requires bit-identity.
func checkSamples(out *outcome, ref *serve.Engine, samples []sampled, what string) {
	for _, s := range samples {
		q, err := toServe(s.q)
		if err != nil {
			out.check(false, "%s: %v", what, err)
			continue
		}
		want, err := ref.QueryCtx(context.Background(), q)
		out.check(err == nil && sameAnswer(s.got, want), "%s: %s(%d,%d) answer differs from the no-cache, no-wait replay (err %v)",
			what, s.q.op, s.q.u, s.q.v, err)
	}
}

// probeAccuracy returns Σ|estimate − exact| / Σ exact of the local
// triangle counts at the probe vertices. The estimates come from the
// no-cache, no-wait engine, whose answers the sampled checks pin
// bit for bit to what the server returns.
func probeAccuracy(out *outcome, eng *serve.Engine, probe []uint32, exact func(uint32) int64) (float64, error) {
	var absErr, total float64
	for _, v := range probe {
		r, err := eng.QueryCtx(context.Background(), serve.Query{Op: serve.OpLocalTC, U: v})
		out.check(err == nil, "accuracy probe: localtc %d: %v", v, err)
		if err != nil {
			continue
		}
		x := float64(exact(v))
		absErr += math.Abs(r.Value - x)
		total += x
	}
	if total == 0 {
		return 0, fmt.Errorf("accuracy probe: no triangles at the probe vertices")
	}
	return absErr / total, nil
}

// engineRec is what the timed Querier and the tracer recorded during a
// fixed-rate phase.
type engineRec struct {
	hits, misses []float64 // µs per call
	missQ        []serve.Query
	batchUS      []float64 // batch span durations
	evalUS       []float64 // eval/* span durations
}

// take returns and clears what the Querier recorded, with the span
// durations the tracer journaled so far.
func (t *timedQuerier) take(tr *obs.Tracer) engineRec {
	t.mu.Lock()
	r := engineRec{hits: t.hits, misses: t.misses, missQ: t.missQ}
	t.hits, t.misses, t.missQ = nil, nil, nil
	t.mu.Unlock()
	r.batchUS, r.evalUS = spanStats(tr, "batch"), spanStats(tr, "eval/")
	return r
}

// engineLayers fills the serve.* ledger rows from the timed Querier,
// the engine's counters over the fixed-rate phase (st0 → st1), the
// engine's spans, and a replay of missed queries on the no-wait engine.
func engineLayers(out *outcome, r engineRec, nowait *serve.Engine, st0, st1 serve.Stats) {
	l := out.layer
	l["serve.engine_hit_us"] = quantile(r.hits, 0.50)
	l["serve.engine_miss_p50_us"] = quantile(r.misses, 0.50)
	l["serve.engine_miss_p99_us"] = quantile(r.misses, 0.99)
	var replay []float64
	for _, q := range r.missQ {
		t0 := time.Now()
		_, err := nowait.QueryCtx(context.Background(), q)
		replay = append(replay, micros(time.Since(t0)))
		out.check(err == nil, "no-wait replay: %v", err)
	}
	l["serve.eval_nowait_us"] = quantile(replay, 0.50)
	l["serve.batch_wait_us"] = l["serve.engine_miss_p50_us"] - l["serve.eval_nowait_us"]
	l["serve.batch_span_us"] = quantile(r.batchUS, 0.50)
	l["serve.eval_span_us"] = quantile(r.evalUS, 0.50)
	dh, dm := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	if dh+dm > 0 {
		l["serve.cache_hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	db, dq := st1.Batch.Batches-st0.Batch.Batches, st1.Batch.Queries-st0.Batch.Queries
	if db > 0 {
		l["serve.batch_mean_size"] = float64(dq) / float64(db)
	}
	if dq > 0 {
		l["serve.coalesced_ratio"] = float64(st1.Batch.Coalesced-st0.Batch.Coalesced) / float64(dq)
	}
}
