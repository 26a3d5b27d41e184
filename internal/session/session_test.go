package session

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/dist"
	"probgraph/internal/graph"
	"probgraph/internal/mining"
)

func newSession(t *testing.T, g *graph.Graph, opts ...Option) *Session {
	t.Helper()
	s, err := New(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, s *Session, k Kernel) Result {
	t.Helper()
	res, err := s.Run(context.Background(), k)
	if err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	return res
}

// TestRunMatchesFlatKernels pins the bit-identity contract: Run produces
// exactly the value the corresponding free function produces on the same
// graph, seed, and configuration. Several workers run it: par's chunk
// grid keeps the float reductions deterministic at any worker count.
func TestRunMatchesFlatKernels(t *testing.T) {
	g := graph.Kronecker(9, 10, 42)
	const seed, workers = 7, 4
	s := newSession(t, g, WithSeed(seed), WithWorkers(workers), WithBudget(0.25))

	o := g.Orient(workers)
	if got, want := mustRun(t, s, TC{Mode: Exact}).Value, float64(mining.ExactTC(o, workers)); got != want {
		t.Errorf("TC exact: %v != flat %v", got, want)
	}
	if got, want := mustRun(t, s, KClique{K: 4, Mode: Exact}).Value, float64(mining.Exact4Clique(o, workers)); got != want {
		t.Errorf("4-clique exact: %v != flat %v", got, want)
	}
	if got, want := mustRun(t, s, KClique{K: 5, Mode: Exact}).Value, float64(mining.ExactKClique(o, 5, workers)); got != want {
		t.Errorf("5-clique exact: %v != flat %v", got, want)
	}

	for _, kind := range []core.Kind{core.BF, core.KHash, core.OneHash, core.KMV} {
		sk, err := s.With(WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		pg, err := core.Build(g, core.Config{Kind: kind, Budget: 0.25, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, sk, TC{Mode: Sketched})
		if want := mining.PGTC(g, pg, workers); got.Value != want {
			t.Errorf("%v TC sketched: %v != flat %v", kind, got.Value, want)
		}
		if got.Kind != kind || got.Mode != Sketched {
			t.Errorf("%v TC sketched: result labeled %v/%v", kind, got.Kind, got.Mode)
		}
		if got, want := mustRun(t, sk, VertexSim{U: 3, V: 9, Measure: mining.Jaccard, Mode: Sketched}).Value,
			mining.PGSimilarity(g, pg, 3, 9, mining.Jaccard); got != want {
			t.Errorf("%v similarity sketched: %v != flat %v", kind, got, want)
		}
		gotC := mustRun(t, sk, JarvisPatrick{Measure: mining.CommonNeighbors, Tau: 2, Mode: Sketched})
		wantC := mining.JarvisPatrickPG(g, pg, mining.CommonNeighbors, 2, workers)
		if int(gotC.Value) != wantC.NumClusters || len(gotC.Clusters.Kept) != len(wantC.Kept) {
			t.Errorf("%v cluster sketched: %v clusters / %d kept != flat %d / %d",
				kind, gotC.Value, len(gotC.Clusters.Kept), wantC.NumClusters, len(wantC.Kept))
		}
	}

	// Sketched 4-clique over oriented BF sketches.
	opg, err := core.BuildOriented(o, g.SizeBits(), core.Config{Kind: core.BF, Budget: 0.25, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustRun(t, s, KClique{K: 4, Mode: Sketched}).Value, mining.PG4Clique(o, opg, workers); got != want {
		t.Errorf("4-clique sketched: %v != flat %v", got, want)
	}

	// Exact similarity and clustering.
	if got, want := mustRun(t, s, VertexSim{U: 3, V: 9, Measure: mining.Jaccard}).Value,
		mining.ExactSimilarity(g, 3, 9, mining.Jaccard); got != want {
		t.Errorf("similarity exact: %v != flat %v", got, want)
	}
	gotC := mustRun(t, s, JarvisPatrick{Measure: mining.CommonNeighbors, Tau: 2})
	wantC := mining.JarvisPatrickExact(g, mining.CommonNeighbors, 2, workers)
	if int(gotC.Value) != wantC.NumClusters {
		t.Errorf("cluster exact: %v != flat %d", gotC.Value, wantC.NumClusters)
	}

	// Link prediction: exact and sketched share the Session seed.
	gotL := mustRun(t, s, LinkPred{Measure: mining.CommonNeighbors, RemoveFrac: 0.1})
	wantL, err := mining.EvaluateLinkPrediction(g, mining.CommonNeighbors, 0.1, seed, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	if gotL.LinkPred.Hits != wantL.Hits || gotL.Value != wantL.Efficiency {
		t.Errorf("linkpred exact: %+v != flat %+v", gotL.LinkPred, wantL)
	}

	// Local TC, whole-graph and single-vertex, against the flat forms.
	locals := mustRun(t, s, LocalTCAll{Mode: Exact})
	wantLocals := mining.LocalTC(g, workers)
	for v, c := range wantLocals {
		if locals.Locals[v] != float64(c) {
			t.Fatalf("localtc-all: vertex %d: %v != %d", v, locals.Locals[v], c)
		}
	}
	one := mustRun(t, s, LocalTC{U: 5, Mode: Exact})
	if one.Value != float64(wantLocals[5]) {
		t.Errorf("localtc(5): %v != %d", one.Value, wantLocals[5])
	}
	if got, want := mustRun(t, s, ClusteringCoeff{Mode: Exact}).Value, mining.LocalClusteringCoefficient(g, workers); got != want {
		t.Errorf("cc exact: %v != flat %v", got, want)
	}
}

func TestRunDistKernels(t *testing.T) {
	g := graph.Kronecker(8, 8, 3)
	s := newSession(t, g, WithSeed(5), WithWorkers(2))
	exact := mustRun(t, s, DistTC{Nodes: 4, Ship: dist.ShipNeighborhoods})
	if exact.Mode != Exact || exact.Net == nil || exact.Net.Bytes == 0 {
		t.Fatalf("dist-tc exact: %+v", exact)
	}
	o := g.Orient(2)
	if want := float64(mining.ExactTC(o, 2)); exact.Value != want {
		t.Errorf("dist-tc exact count %v, want %v", exact.Value, want)
	}
	sk := mustRun(t, s, DistTC{Nodes: 4, Ship: dist.ShipSketches})
	if sk.Mode != Sketched || sk.Net == nil || sk.Net.Bytes >= exact.Net.Bytes {
		t.Errorf("dist-tc sketched: mode %v, bytes %d vs exact %d", sk.Mode, sk.Net.Bytes, exact.Net.Bytes)
	}
	sim := mustRun(t, s, DistSim{Nodes: 4, Ship: dist.ShipSketches, Measure: mining.Jaccard})
	if sim.Mode != Sketched || sim.Net == nil {
		t.Errorf("dist-sim: %+v", sim)
	}
	if _, err := s.Run(context.Background(), DistSim{Nodes: 4, Ship: dist.ShipSketches, Measure: mining.AdamicAdar}); err == nil {
		t.Error("weighted measure must not be distributable")
	}
}

func TestRunValidationErrors(t *testing.T) {
	g := graph.Kronecker(7, 6, 1)
	s := newSession(t, g, WithWorkers(1))
	cases := []Kernel{
		TC{Mode: Mode(9)},
		KClique{K: 2},
		VertexSim{U: 1 << 30, V: 0},
		VertexSim{U: 0, V: 1, Measure: mining.Measure(99)},
		JarvisPatrick{Measure: mining.Measure(-1)},
		LinkPred{Measure: mining.Jaccard, RemoveFrac: 2},
		LocalTC{U: 1 << 30},
	}
	for _, k := range cases {
		if _, err := s.Run(context.Background(), k); err == nil {
			t.Errorf("%T %+v: expected an error", k, k)
		}
	}
	// Sketched k-clique (k != 4) needs Bloom filters — an error, not a panic.
	skh, err := s.With(WithKind(core.KHash))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skh.Run(context.Background(), KClique{K: 5, Mode: Sketched}); err == nil {
		t.Error("PG k-clique on kH sketches must error")
	}
	if _, err := New(nil); err == nil {
		t.Error("New(nil) must error")
	}
	if _, err := New(g, WithBudget(2)); err == nil {
		t.Error("budget > 1 must error")
	}
	if _, err := s.Run(context.Background(), nil); err == nil {
		t.Error("nil kernel must error")
	}
}

// TestConcurrentRunsShareOneBuild exercises lazy-build idempotence: many
// concurrent Runs needing the same derived state agree exactly, under
// the race detector.
func TestConcurrentRunsShareOneBuild(t *testing.T) {
	g := graph.Kronecker(9, 8, 11)
	s := newSession(t, g, WithSeed(3), WithWorkers(2))
	const goroutines = 16
	values := make([]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kernels := []Kernel{
				TC{Mode: Sketched},
				KClique{K: 4, Mode: Sketched},
				VertexSim{U: 1, V: 2, Measure: mining.Jaccard, Mode: Sketched},
			}
			res, err := s.Run(context.Background(), kernels[i%len(kernels)])
			values[i], errs[i] = res.Value, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if j := i % 3; values[i] != values[j] {
			t.Errorf("goroutine %d: value %v differs from goroutine %d's %v", i, values[i], j, values[j])
		}
	}
	// Exactly two sketch builds can be resident: the full and the
	// oriented BF PG of the single configuration used above.
	if got := len(s.st.pgs); got != 2 {
		t.Errorf("state holds %d PGs, want 2 (full + oriented)", got)
	}
	if b := s.ResidentBytes(); b[core.BF.String()] == 0 {
		t.Errorf("ResidentBytes = %v, want BF bytes > 0", b)
	}
}

func TestRunCancellation(t *testing.T) {
	// Big enough that the exact kernel takes a while; the cancelled run
	// must come back orders of magnitude faster than completion.
	g := graph.Kronecker(13, 24, 2)
	s := newSession(t, g, WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.Run(ctx, TC{Mode: Exact})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	// A pre-cancelled context never starts the kernel.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.Run(ctx2, TC{Mode: Exact}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
}

func TestWithSharesState(t *testing.T) {
	g := graph.Kronecker(8, 8, 9)
	s := newSession(t, g, WithSeed(1), WithWorkers(1))
	mustRun(t, s, TC{Mode: Sketched})
	// A reconfigured view with only the worker count changed maps to the
	// same sketch build; a different seed maps to a new one.
	sw, err := s.With(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sw, TC{Mode: Sketched})
	if got := len(s.st.pgs); got != 1 {
		t.Fatalf("worker-only reconfiguration rebuilt: %d PGs resident", got)
	}
	s2, err := s.With(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s2, TC{Mode: Sketched})
	if got := len(s.st.pgs); got != 2 {
		t.Fatalf("seed reconfiguration did not build: %d PGs resident", got)
	}
	if s.Graph() != g || s2.Graph() != g {
		t.Fatal("sessions must share the graph")
	}
}

func TestResultMetadata(t *testing.T) {
	g := graph.Kronecker(8, 8, 4)
	s := newSession(t, g, WithKind(core.KHash), WithSeed(2), WithWorkers(1))
	res := mustRun(t, s, TC{Mode: Sketched})
	if res.Kernel != "tc" || res.Elapsed <= 0 {
		t.Errorf("metadata: %+v", res)
	}
	if res.Bound <= 0 || res.Confidence != 0.95 {
		t.Errorf("kH TC must carry a Thm VII.1 bound, got %v @ %v", res.Bound, res.Confidence)
	}
	if res.Count() != mining.RoundCount(res.Value) {
		t.Errorf("Count() = %d", res.Count())
	}
	exact := mustRun(t, s, TC{Mode: Exact})
	if exact.Bound != 0 || exact.Confidence != 0 {
		t.Errorf("exact TC must carry no bound: %+v", exact)
	}
}

// TestFullSketchSharedAcrossOrientations: full-neighborhood sketches are
// orientation-independent, so views differing only in WithOrientation
// share one build; oriented sketches key on their ordering.
func TestFullSketchSharedAcrossOrientations(t *testing.T) {
	g := graph.Kronecker(8, 8, 9)
	s := newSession(t, g, WithWorkers(1))
	ctx := context.Background()
	pg1, err := s.PG(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := s.With(WithOrientation(OrientDegeneracy))
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := sd.PG(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pg1 != pg2 {
		t.Fatal("full sketches must be shared across orientation views")
	}
	o1, err := s.OrientedPG(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sd.OrientedPG(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("oriented sketches of different orderings must be distinct")
	}
}
