package probgraph_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"probgraph"
)

// TestSessionMatchesFlatAPI is the API-redesign acceptance contract:
// sess.Run produces bit-identical results to the corresponding flat
// function for TC, 4-clique, similarity, and clustering on a fixed-seed
// Kronecker graph. Several workers run it: the parallel loops' fixed
// chunk grid keeps the float reductions deterministic at any worker
// count.
func TestSessionMatchesFlatAPI(t *testing.T) {
	g := probgraph.Kronecker(9, 10, 42)
	const seed, workers = 7, 4
	cfg := probgraph.Config{Kind: probgraph.BF, Budget: 0.25, Seed: seed, Workers: workers}
	sess, err := probgraph.NewSession(g,
		probgraph.WithSeed(seed), probgraph.WithWorkers(workers), probgraph.WithBudget(0.25))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(k probgraph.Kernel) probgraph.Result {
		t.Helper()
		res, err := sess.Run(ctx, k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		return res
	}

	pg, err := probgraph.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := run(probgraph.TC{Mode: probgraph.Exact}).Value,
		float64(probgraph.ExactTriangleCount(g, workers)); got != want {
		t.Errorf("TC exact: session %v != flat %v", got, want)
	}
	if got, want := run(probgraph.TC{Mode: probgraph.Sketched}).Value,
		probgraph.TriangleCount(g, pg, workers); got != want {
		t.Errorf("TC sketched: session %v != flat %v", got, want)
	}
	if got, want := run(probgraph.KClique{K: 4, Mode: probgraph.Exact}).Value,
		float64(probgraph.ExactFourCliqueCount(g, workers)); got != want {
		t.Errorf("4-clique exact: session %v != flat %v", got, want)
	}
	o := probgraph.Orient(g, workers)
	opg, err := probgraph.BuildOriented(o, g.SizeBits(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run(probgraph.KClique{K: 4, Mode: probgraph.Sketched}).Value,
		probgraph.FourCliqueCount(o, opg, workers); got != want {
		t.Errorf("4-clique sketched: session %v != flat %v", got, want)
	}
	for _, pair := range [][2]uint32{{3, 9}, {0, 1}, {100, 200}} {
		u, v := pair[0], pair[1]
		if got, want := run(probgraph.VertexSim{U: u, V: v, Measure: probgraph.Jaccard}).Value,
			probgraph.Similarity(g, u, v, probgraph.Jaccard); got != want {
			t.Errorf("sim(%d,%d) exact: session %v != flat %v", u, v, got, want)
		}
		if got, want := run(probgraph.VertexSim{U: u, V: v, Measure: probgraph.Jaccard, Mode: probgraph.Sketched}).Value,
			probgraph.PGSimilarity(g, pg, u, v, probgraph.Jaccard); got != want {
			t.Errorf("sim(%d,%d) sketched: session %v != flat %v", u, v, got, want)
		}
	}
	gotC := run(probgraph.JarvisPatrick{Measure: probgraph.CommonNeighbors, Tau: 2})
	wantC := probgraph.Cluster(g, probgraph.CommonNeighbors, 2, workers)
	if int(gotC.Value) != wantC.NumClusters || len(gotC.Clusters.Kept) != len(wantC.Kept) {
		t.Errorf("cluster exact: session %v/%d != flat %d/%d",
			gotC.Value, len(gotC.Clusters.Kept), wantC.NumClusters, len(wantC.Kept))
	}
	gotPC := run(probgraph.JarvisPatrick{Measure: probgraph.CommonNeighbors, Tau: 2, Mode: probgraph.Sketched})
	wantPC := probgraph.PGCluster(g, pg, probgraph.CommonNeighbors, 2, workers)
	if int(gotPC.Value) != wantPC.NumClusters || len(gotPC.Clusters.Kept) != len(wantPC.Kept) {
		t.Errorf("cluster sketched: session %v/%d != flat %d/%d",
			gotPC.Value, len(gotPC.Clusters.Kept), wantPC.NumClusters, len(wantPC.Kept))
	}
}

// TestSessionCancellation: cancelling mid-kernel on a large Kronecker
// graph returns ctx.Err() promptly (within chunk granularity), far
// before the kernel could have finished.
func TestSessionCancellation(t *testing.T) {
	g := probgraph.Kronecker(13, 24, 2)
	sess, err := probgraph.NewSession(g, probgraph.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = sess.Run(ctx, probgraph.TC{Mode: probgraph.Exact})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled kernel returned after %v", elapsed)
	}
}

// TestSessionConcurrentRuns: concurrent Runs triggering the same lazy
// builds agree exactly (run under -race in CI).
func TestSessionConcurrentRuns(t *testing.T) {
	g := probgraph.Kronecker(9, 8, 11)
	sess, err := probgraph.NewSession(g, probgraph.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	values := make([]float64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sess.Run(context.Background(), probgraph.TC{Mode: probgraph.Sketched})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			values[i] = res.Value
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if values[i] != values[0] {
			t.Fatalf("goroutine %d saw %v, goroutine 0 saw %v", i, values[i], values[0])
		}
	}
}

// TestFlatFunctionsShareOrientation pins the re-orientation fix: the
// flat counting functions route through the graph's default Session, so
// Orient and the exact counters all observe one cached orientation.
func TestFlatFunctionsShareOrientation(t *testing.T) {
	g := probgraph.Kronecker(8, 8, 5)
	o1 := probgraph.Orient(g, 0)
	o2 := probgraph.Orient(g, 0)
	if o1 != o2 {
		t.Fatal("Orient must return the cached orientation on repeated calls")
	}
	// The counts routed through the same cache agree with each other.
	if probgraph.KCliqueCount(g, 3, 0) != probgraph.ExactTriangleCount(g, 0) {
		t.Fatal("KCliqueCount(3) must equal the triangle count")
	}
	// Degeneracy orientation is cached separately and counts identically.
	od := probgraph.OrientByDegeneracy(g, 0)
	if od == o1 {
		t.Fatal("degeneracy orientation must be distinct from the degree orientation")
	}
}

// TestSessionErrorsNotPanics: misconfiguration surfaces as errors.
func TestSessionErrorsNotPanics(t *testing.T) {
	g := probgraph.Kronecker(7, 6, 1)
	sess, err := probgraph.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Run(ctx, probgraph.VertexSim{U: 1 << 30, V: 0}); err == nil {
		t.Error("out-of-range vertex must error")
	}
	if _, err := sess.Run(ctx, probgraph.KClique{K: 1}); err == nil {
		t.Error("K < 3 must error")
	}
	if _, err := probgraph.NewSession(nil); err == nil {
		t.Error("nil graph must error")
	}
	skh, err := sess.With(probgraph.WithKind(probgraph.KHash))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skh.Run(ctx, probgraph.KClique{K: 5, Mode: probgraph.Sketched}); err == nil {
		t.Error("sketched 5-clique on kH sketches must error, not panic")
	}
}
