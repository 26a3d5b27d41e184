package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/pattern"
	"probgraph/internal/serve"
	"probgraph/internal/session"
	"probgraph/internal/stream"
)

func TestInputsAreSeeded(t *testing.T) {
	n1, a := kronEdges(8, 8, 5)
	n2, b := kronEdges(8, 8, 5)
	_, c := kronEdges(8, 8, 6)
	if n1 != n2 || !slices.Equal(a, b) {
		t.Fatal("same seed gave different edge lists")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same edge list")
	}
	qa := genQueries(5, 1000, n1, 1.2, defaultMix)
	qb := genQueries(5, 1000, n1, 1.2, defaultMix)
	if !slices.Equal(qa, qb) {
		t.Fatal("same seed gave different query streams")
	}
	ops := map[string]int{}
	for _, q := range qa {
		ops[q.op]++
		if int(q.u) >= n1 || int(q.v) >= n1 {
			t.Fatalf("query %+v outside [0,%d)", q, n1)
		}
	}
	if ops["similarity"] < ops["localtc"] || ops["localtc"] < ops["topk"] {
		t.Fatalf("mix not honored: %v", ops)
	}
}

// TestReferenceMatchesProgram pins the benchmark's own exact counts to
// the program's exact kernels on a small graph, so a reference bug cannot
// pass as a program bug or hide one.
func TestReferenceMatchesProgram(t *testing.T) {
	n, edges := kronEdges(9, 8, 3)
	r := newRefGraph(n, edges)
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if int64(g.NumEdges()) != r.edges() {
		t.Fatalf("edges: program %d, reference %d", g.NumEdges(), r.edges())
	}
	ctx := context.Background()
	sess, err := session.New(g, session.WithKind(core.BF), session.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := sess.Run(ctx, session.TC{Mode: session.Exact})
	if err != nil || tc.Count() != r.triangles() {
		t.Fatalf("TC: program %d (%v), reference %d", tc.Count(), err, r.triangles())
	}
	c4, err := sess.Run(ctx, session.KClique{K: 4, Mode: session.Exact})
	if err != nil || c4.Count() != r.fourCliques() {
		t.Fatalf("4-cliques: program %d (%v), reference %d", c4.Count(), err, r.fourCliques())
	}
	dia, err := sess.Run(ctx, session.PatternCount{P: pattern.Diamond(), Mode: session.Exact})
	if err != nil || dia.Count() != r.diamonds() {
		t.Fatalf("diamonds: program %d (%v), reference %d", dia.Count(), err, r.diamonds())
	}
	for _, v := range []uint32{0, 1, 7, 100} {
		lt, err := sess.Run(ctx, session.LocalTC{U: v, Mode: session.Exact})
		if err != nil || lt.Count() != r.localTriangles(v) {
			t.Fatalf("local TC of %d: program %d (%v), reference %d", v, lt.Count(), err, r.localTriangles(v))
		}
	}
}

// TestBatchModelMatchesDynamicGraph applies generated batches to a
// DynamicGraph and to the model and requires the same graph.
func TestBatchModelMatchesDynamicGraph(t *testing.T) {
	n, edges := kronEdges(9, 8, 4)
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := stream.New(g, serve.SnapshotConfig{Seed: sketchSeed})
	if err != nil {
		t.Fatal(err)
	}
	m := newEdgeModel(n, edges)
	gen := newBatchGen(4, m, 9)
	for i := 0; i < 30; i++ {
		add, del := gen.next(20, 10)
		st, err := dyn.ApplyBatch(add, del)
		if err != nil {
			t.Fatal(err)
		}
		if st.Added != len(add) || st.Removed != len(del) {
			t.Fatalf("batch %d: applied +%d/-%d, generated +%d/-%d", i, st.Added, st.Removed, len(add), len(del))
		}
	}
	snap, err := dyn.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if snap.G.NumEdges() != len(m.list) {
		t.Fatalf("edges: dynamic graph %d, model %d", snap.G.NumEdges(), len(m.list))
	}
	ref := refFromModel(m)
	for v := 0; v < n; v++ {
		if !slices.Equal(snap.G.Neighbors(uint32(v)), ref.adj[v]) {
			t.Fatalf("neighbors of %d differ from the model", v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("p25 %v, want 2", q)
	}
	if q := quantile([]float64{1, 2}, 0.99); math.Abs(q-1.99) > 1e-12 {
		t.Fatalf("p99 %v, want 1.99", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile %v", q)
	}
}

// TestOpenLoopCountsStalls checks that the generator keeps its schedule
// when the system keeps up, and charges a stall to the requests behind
// it when it does not.
func TestOpenLoopCountsStalls(t *testing.T) {
	fast := openLoop(2000, 200, 2, time.Second, func(int) error { return nil })
	if fast.sent != 200 || fast.dropped != 0 || fast.errs != 0 {
		t.Fatalf("fast run: %+v", fast)
	}
	if p := fast.p(0.5); p > 1 {
		t.Fatalf("fast run p50 %.3f ms", p)
	}
	slow := openLoop(1000, 100, 1, time.Second, func(i int) error {
		if i == 10 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	if slow.sent != 100 {
		t.Fatalf("slow run sent %d", slow.sent)
	}
	// The 30 ms stall delays the ~30 requests due during it, each by up
	// to 30 ms: the p90 must show it, not just the one slow request.
	if p := slow.p(0.90); p < 5 {
		t.Fatalf("stall hidden: p90 %.3f ms", p)
	}
	failing := openLoop(1000, 10, 1, time.Second, func(int) error { return errWrongAnswer })
	if failing.errs != 10 {
		t.Fatalf("errors counted %d, want 10", failing.errs)
	}
}

func TestCapacitySearchBisects(t *testing.T) {
	// A system that meets the SLO below 3000 q/s.
	best, runs := capacitySearch(1000, 8000, 6, func(rate float64) *loadRun {
		lat := 1.0
		if rate > 3000 {
			lat = 50
		}
		return &loadRun{lat: []float64{lat, lat}}
	})
	if len(runs) != 6 || best > 3000 || best < 2500 {
		t.Fatalf("best %.0f after %d rungs", best, len(runs))
	}
}

// TestWorkloadsSmoke runs every workload briefly, traced, and requires
// a correct result with every metric present.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			e := &env{seed: 1, seconds: 1, trace: true, procs: 2, dir: t.TempDir()}
			out, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || len(out.problems) != 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.problems)
			}
			for _, m := range endToEnd {
				if v, ok := out.e2e[m.name]; !ok || v <= 0 {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			for _, l := range smokeLayers[name] {
				if v, ok := out.layer[l]; !ok || v <= 0 {
					t.Errorf("%s = %v", l, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesLedger keeps the declared metric lists at the
// repository root in step with what the benchmark prints.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metric
	for _, m := range endToEnd {
		e2e = append(e2e, metric{m.name, m.unit})
	}
	for _, l := range ledger {
		layer = append(layer, metric{l.name, l.unit})
	}
	if !slices.Equal(decl.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, benchmark prints %v", decl.EndToEnd, e2e)
	}
	if !slices.Equal(decl.PerLayer, layer) {
		t.Errorf("per_layer differs from the ledger")
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q not implemented", w.Name)
		}
	}
}

// smokeLayers are ledger rows each workload must fill.
var smokeLayers = map[string][]string{
	"mine-kron":    {"graph.csr_build_s", "core.pg_build_s", "kernels.tc_bf_replay_s", "par.tc_bf_1w_s", "mining.tc_bf_s", "pattern.candidates"},
	"serve-hot":    {"pgio.open_s", "serve.engine_hit_us", "serve.cache_hit_ratio", "http.self_p50_us", "load.sent"},
	"serve-cold":   {"pgio.open_s", "serve.engine_miss_p50_us", "serve.eval_nowait_us", "http.bytes_per_query"},
	"ingest-churn": {"pgio.open_s", "stream.freeze_ms", "stream.ingest_p99_ms", "stream.batches", "serve.engine_miss_p50_us"},
}
