package par

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 100, 1001} {
			seen := make([]atomic.Int32, n)
			For(n, workers, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForChunkedCoversRange(t *testing.T) {
	n := 1000
	var total atomic.Int64
	err := ForChunkedCtx(context.Background(), n, 4, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(n) {
		t.Fatalf("covered %d of %d items", total.Load(), n)
	}
}

// sumOf is Sum under a background context, for tests that never cancel.
func sumOf[T int64 | float64](n, workers int, body func(lo, hi int) T) T {
	v, err := Sum(context.Background(), n, workers, body)
	if err != nil {
		panic(err)
	}
	return v
}

// sumEach adapts a per-index body to Sum's per-chunk form.
func sumEach[T int64 | float64](body func(i int) T) func(lo, hi int) T {
	return func(lo, hi int) T {
		var s T
		for i := lo; i < hi; i++ {
			s += body(i)
		}
		return s
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	n := 12345
	want := int64(n) * int64(n-1) / 2
	for _, workers := range []int{1, 3, 8} {
		got := sumOf(n, workers, sumEach(func(i int) int64 { return int64(i) }))
		if got != want {
			t.Fatalf("workers=%d: sum=%d want %d", workers, got, want)
		}
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 4096
	got := sumOf(n, 5, sumEach(func(i int) float64 { return 1.0 }))
	if got != float64(n) {
		t.Fatalf("sum=%v want %v", got, float64(n))
	}
}

func TestReduceInt64ChunksDisjoint(t *testing.T) {
	n := 999
	got := sumOf(n, 6, func(lo, hi int) int64 { return int64(hi - lo) })
	if got != int64(n) {
		t.Fatalf("reduce=%d want %d", got, n)
	}
}

func TestReduceFloatSingleWorkerDeterministic(t *testing.T) {
	n := 100
	a := sumOf(n, 1, func(lo, hi int) float64 { return float64(hi - lo) })
	b := sumOf(n, 1, func(lo, hi int) float64 { return float64(hi - lo) })
	if a != b || a != float64(n) {
		t.Fatalf("got %v, %v", a, b)
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	For(-5, 4, func(int) { ran = true })
	if ran {
		t.Fatal("body must not run for n<=0")
	}
	if sumOf(0, 4, sumEach(func(int) int64 { return 1 })) != 0 {
		t.Fatal("empty sum must be 0")
	}
	if sumOf(-1, 4, func(int, int) float64 { return 1 }) != 0 {
		t.Fatal("empty reduce must be 0")
	}
	if parts, err := Chunks(context.Background(), 0, 4, func(int, int) int { return 1 }); parts != nil || err != nil {
		t.Fatalf("empty Chunks = %v, %v", parts, err)
	}
}

// TestGridWidth pins the chunking rule: width max(ceil(n/256), 128),
// at most 256 chunks, and chunks that tile [0, n) in order whatever
// the worker count.
func TestGridWidth(t *testing.T) {
	for _, tc := range []struct{ n, width int }{
		{1, 128}, {128, 128}, {129, 128}, {32768, 128}, {32769, 129}, {1 << 20, 4096},
	} {
		if got := grid(tc.n); got != tc.width {
			t.Errorf("grid(%d) = %d, want %d", tc.n, got, tc.width)
		}
		if chunks := (tc.n + tc.width - 1) / tc.width; chunks > maxChunks {
			t.Errorf("n=%d: %d chunks exceed the %d cap", tc.n, chunks, maxChunks)
		}
	}
	for _, n := range []int{1, 127, 128, 1000, 40000} {
		for _, workers := range []int{1, 2, 3, 8} {
			parts, err := Chunks(context.Background(), n, workers, func(lo, hi int) [2]int { return [2]int{lo, hi} })
			if err != nil {
				t.Fatal(err)
			}
			next, width := 0, grid(n)
			for c, p := range parts {
				if p[0] != next || p[1] != min(next+width, n) {
					t.Fatalf("n=%d workers=%d: chunk %d = [%d,%d), want [%d,%d)", n, workers, c, p[0], p[1], next, min(next+width, n))
				}
				next = p[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks cover [0,%d)", n, workers, next)
			}
		}
	}
}

// TestSumBitIdenticalAcrossWorkers pins the determinism contract: a
// float reduction groups its additions by the grid alone, so the
// result is bit-identical for every worker count, and a cancellable
// (but uncancelled) context changes nothing.
func TestSumBitIdenticalAcrossWorkers(t *testing.T) {
	n := 100_003
	body := sumEach(func(i int) float64 { return 1.0 / float64(i+1) })
	want := math.Float64bits(sumOf(n, 1, body))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 2, 3, 8} {
		for rep := 0; rep < 3; rep++ {
			got, err := Sum(ctx, n, workers, body)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != want {
				t.Fatalf("workers=%d rep=%d: %v differs from the 1-worker %v", workers, rep, got, math.Float64frombits(want))
			}
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	counts := []int64{3, 0, 2, 5}
	total := ExclusiveScan(counts)
	want := []int64{0, 3, 3, 5}
	if total != 10 {
		t.Fatalf("total=%d", total)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("scan=%v want %v", counts, want)
		}
	}
}

// Property: parallel sum equals the closed form for arbitrary n, workers.
func TestSumProperty(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n % 5000)
		ww := int(w%16) + 1
		got := sumOf(nn, ww, sumEach(func(i int) int64 { return int64(i) }))
		return got == int64(nn)*int64(nn-1)/2 || nn == 0 && got == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForCtxUncancelledMatchesFor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 777
		seen := make([]atomic.Int32, n)
		if err := ForCtx(context.Background(), n, workers, func(i int) { seen[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int64{}
		err := ForCtx(ctx, 100_000, workers, func(int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		// At most a few chunks may have started before the first check.
		if ran.Load() == 100_000 {
			t.Fatalf("workers=%d: loop ran to completion despite cancelled ctx", workers)
		}
	}
}

func TestForCtxCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 1 << 16
	var ran atomic.Int64
	err := ForChunkedCtx(ctx, n, 4, func(lo, hi int) {
		if ran.Add(int64(hi-lo)) > 1024 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if ran.Load() == int64(n) {
		t.Fatal("loop ran every chunk despite mid-run cancellation")
	}
}

func TestReduceCtxUncancelledMatchesReduce(t *testing.T) {
	n := 12345
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Sum(ctx, n, 4, func(lo, hi int) int64 { return int64(hi - lo) })
	if err != nil || got != int64(n) {
		t.Fatalf("got %d, %v; want %d, nil", got, err, n)
	}
	f, err := Sum(ctx, n, 1, func(lo, hi int) float64 { return float64(hi - lo) })
	if err != nil || f != float64(n) {
		t.Fatalf("got %v, %v; want %v, nil", f, err, float64(n))
	}
}

// TestSingleWorkerBitIdenticalUnderCancellableCtx checks that with one
// worker a cancellable (but uncancelled) context does not change the
// summation grouping, so the float result is bit-identical to the
// background-context form.
func TestSingleWorkerBitIdenticalUnderCancellableCtx(t *testing.T) {
	n := 10007
	body := sumEach(func(i int) float64 { return 1.0 / float64(i+1) })
	want := sumOf(n, 1, body)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Sum(ctx, n, 1, body)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cancellable ctx changed the single-worker result: %v != %v", got, want)
	}
}

func TestReduceCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := Sum(ctx, 1<<20, 4, func(lo, hi int) int64 { return int64(hi - lo) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if got != 0 {
		t.Fatalf("cancelled reduce returned %d, want 0", got)
	}
	// A single worker walks the grid in the caller and observes it too.
	_, err = Sum(ctx, 1<<20, 1, func(lo, hi int) float64 { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("single worker err=%v, want context.Canceled", err)
	}
	parts, err := Chunks(ctx, 1<<20, 4, func(lo, hi int) int { return hi - lo })
	if !errors.Is(err, context.Canceled) || parts != nil {
		t.Fatalf("cancelled Chunks = %v, %v; want nil, context.Canceled", parts, err)
	}
}

// TestSingleWorkerCancelledMidRun checks that the in-caller path stops
// at the next chunk boundary, not only before the run starts.
func TestSingleWorkerCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 1 << 16
	var ran int
	_, err := Sum(ctx, n, 1, func(lo, hi int) int64 {
		ran += hi - lo
		cancel()
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if ran != grid(n) {
		t.Fatalf("ran %d items after cancelling in the first chunk, want %d", ran, grid(n))
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sumOf(1024, 4, sumEach(func(i int) int64 { return int64(i) }))
	}
}
