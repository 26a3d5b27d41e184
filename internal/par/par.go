// Package par provides the parallel building blocks used throughout
// ProbGraph: a dynamic parallel-for (the Go analogue of the paper's
// "[in par]" OpenMP loops, §VI-B), one ordered per-chunk reduction, and
// explicit worker-count control so the scaling experiments (Fig. 8/9)
// can sweep thread counts.
//
// Every loop walks the same chunk grid: [0, n) is cut into chunks of
// width max(ceil(n/256), 128), a rule that depends on n
// alone — never on the worker count. Workers pull chunk indices from a
// shared atomic counter, which mirrors OpenMP's schedule(dynamic) and
// is what gives the exact CSR baselines a fair chance on skewed-degree
// graphs; ProbGraph's fixed-size sketches then remove the residual
// imbalance within a chunk (Fig. 1, panel 5).
//
// Contract: scheduling is nondeterministic, results are not. Chunks
// writes each chunk's result into its own slot and returns the slots in
// chunk order, and Sum folds them in that order, so a reduction groups
// its float additions identically for every worker count and every
// schedule: results are bit-identical at 1, 2 or 64 workers. The
// single-worker path walks the same grid in the calling goroutine.
//
// Every loop takes a context and observes cancellation at chunk
// boundaries: no new chunk is started after the context is cancelled,
// chunks already in flight run to completion, and ctx.Err() is
// returned. A context whose Done channel is nil (such as
// context.Background()) adds no overhead to the hot path. workers <= 0
// means DefaultWorkers().
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// maxChunks caps the number of chunks in a loop's grid: enough for
	// dynamic balancing at any worker count this code targets.
	maxChunks = 256
	// minChunk is the floor on chunk width, so a small loop is not cut
	// into chunks too short to amortize the scheduling cost.
	minChunk = 128
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the runtime's GOMAXPROCS setting.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// grid returns the chunk width for a loop over n > 0 items.
func grid(n int) int {
	return max((n+maxChunks-1)/maxChunks, minChunk)
}

// Chunks runs body(lo, hi) over every chunk of the grid covering [0, n)
// and returns the per-chunk results in chunk order. On cancellation it
// returns nil and ctx.Err().
func Chunks[T any](ctx context.Context, n, workers int, body func(lo, hi int) T) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	width := grid(n)
	out := make([]T, (n+width-1)/width)
	done := ctxDone(ctx)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, len(out))
	run := func(c int) {
		lo := c * width
		out[c] = body(lo, min(lo+width, n))
	}
	if workers == 1 {
		for c := range out {
			if Cancelled(done) {
				return nil, ctx.Err()
			}
			run(c)
		}
		return out, nil
	}
	var stopped atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if Cancelled(done) {
					stopped.Store(true)
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= len(out) {
					return
				}
				run(c)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// Sum returns the sum of body(lo, hi) over the grid covering [0, n),
// folded in chunk order — bit-identical for every worker count. On
// cancellation it returns 0 and ctx.Err().
func Sum[T int64 | float64](ctx context.Context, n, workers int, body func(lo, hi int) T) (T, error) {
	parts, err := Chunks(ctx, n, workers, body)
	var total T
	if err != nil {
		return total, err
	}
	for _, p := range parts {
		total += p
	}
	return total, nil
}

// ForChunkedCtx runs body(lo, hi) over every chunk of the grid covering
// [0, n). It returns nil when every chunk ran, ctx.Err() when
// cancellation cut the loop short.
func ForChunkedCtx(ctx context.Context, n, workers int, body func(lo, hi int)) error {
	_, err := Chunks(ctx, n, workers, func(lo, hi int) struct{} {
		body(lo, hi)
		return struct{}{}
	})
	return err
}

// For runs body(i) for every i in [0, n) using the given number of
// workers (<=0 means DefaultWorkers). Iterations must be independent;
// body must synchronize any shared writes itself.
func For(n, workers int, body func(i int)) {
	ForCtx(context.Background(), n, workers, body)
}

// ForCtx is For with cooperative cancellation: after ctx is cancelled no
// new chunk is started, and ctx.Err() is returned. Chunks already in
// flight finish, so the latency of cancellation is one chunk.
func ForCtx(ctx context.Context, n, workers int, body func(i int)) error {
	return ForChunkedCtx(ctx, n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ctxDone returns ctx.Done(), tolerating a nil context.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Cancelled polls a done channel (ctx.Done()) without blocking — the
// chunk-boundary cancellation check, shared by every loop here and by
// the simulated distributed workers. A nil channel costs one comparison.
func Cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ExclusiveScan replaces counts with its exclusive prefix sum in place and
// returns the grand total. Used by CSR construction (offsets from degrees).
func ExclusiveScan(counts []int64) int64 {
	var run int64
	for i, c := range counts {
		counts[i] = run
		run += c
	}
	return run
}
