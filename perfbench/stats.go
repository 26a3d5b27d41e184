package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i]*(1-f) + xs[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencyWindows is how many consecutive stretches a run's samples are
// cut into for windowQuantile.
const latencyWindows = 8

// windowQuantile returns the median over latencyWindows consecutive
// stretches of xs (in time order) of each stretch's q-quantile.
// Interference confined to a few stretches (a host stall, a GC burst)
// moves those stretches' values, not the result; with few samples per
// stretch each stretch's tail quantile is coarse, and the median over
// stretches is what steadies it.
func windowQuantile(xs []float64, q float64) float64 {
	w := min(latencyWindows, len(xs))
	var qs []float64
	for i := 0; i < w; i++ {
		qs = append(qs, quantile(xs[i*len(xs)/w:(i+1)*len(xs)/w], q))
	}
	return median(qs)
}

// tailQuantile is the highest of p99, p90 and p50 that leaves at least
// ten of n samples beyond it.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.50
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// liveHeap returns the live Go heap bytes after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDeltaMB is the heap growth between two liveHeap readings in MiB.
func heapDeltaMB(before, after uint64) float64 {
	return (float64(after) - float64(before)) / mib
}

// memDelta is the allocation and GC activity of a measured window.
type memDelta struct {
	mallocs, bytes uint64
	pauseNS        uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		pauseNS: b.PauseTotalNs - a.PauseTotalNs,
	}
}

func geoMean(a, b float64) float64 { return math.Sqrt(a * b) }

// sameFloat reports bit-identity, the repository's answer contract.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
