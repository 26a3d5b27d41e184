package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram resolution: values keep subBits significant bits, giving
// buckets within 1/2^subBits (~1.6%) of the recorded value — the
// HDR-histogram log-linear layout with a fixed footprint. (Generalized
// out of internal/serve so every layer shares one latency histogram.)
const (
	histSubBits = 6
	histSubSize = 1 << histSubBits
	// Largest index is bucketOf(MaxInt64): major 63-histSubBits, so the
	// table holds (64-histSubBits) major rows of histSubSize buckets.
	histBuckets = (64 - histSubBits) * histSubSize
)

// Hist is a concurrent fixed-footprint latency histogram: log-linear
// buckets (HDR style), atomic recording, quantile reads, and cheap
// snapshots whose differences give windowed percentiles. The zero value
// is NOT ready; use NewHist.
type Hist struct {
	buckets []int64 // atomic
	count   int64   // atomic
	sum     int64   // atomic, ns
	max     int64   // atomic, ns
}

// NewHist returns an empty histogram covering [0, ~2^63) nanoseconds.
func NewHist() *Hist {
	return &Hist{buckets: make([]int64, histBuckets)}
}

// bucketOf maps a nanosecond value to its log-linear bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubSize {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // MSB position, >= histSubBits
	major := exp - histSubBits + 1
	minor := int(u>>(exp-histSubBits)) - histSubSize
	return major<<histSubBits + minor
}

// bucketValue is the inverse of bucketOf: the lower bound of bucket i.
func bucketValue(i int) int64 {
	if i < histSubSize {
		return int64(i)
	}
	major := i >> histSubBits
	minor := i & (histSubSize - 1)
	return int64(histSubSize+minor) << (major - 1)
}

// Record adds one latency observation. Safe for concurrent use. The
// count is bumped before the bucket, so a concurrent Snapshot never
// sums more bucket hits than a later Count() reports.
func (h *Hist) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.buckets[bucketOf(ns)], 1)
	atomic.AddInt64(&h.sum, ns)
	for {
		m := atomic.LoadInt64(&h.max)
		if ns <= m || atomic.CompareAndSwapInt64(&h.max, m, ns) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return atomic.LoadInt64(&h.count) }

// Max returns the largest recorded value.
func (h *Hist) Max() time.Duration { return time.Duration(atomic.LoadInt64(&h.max)) }

// Mean returns the arithmetic mean of all observations.
func (h *Hist) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&h.sum) / n)
}

// Quantile returns the q-quantile (q in [0,1]) to bucket resolution.
// Concurrent Records move the answer but never corrupt it.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := range h.buckets {
		cum += atomic.LoadInt64(&h.buckets[i])
		if cum >= target {
			return time.Duration(bucketValue(i))
		}
	}
	return h.Max()
}

// HistSnapshot is an owned copy of a histogram's state at one moment.
// Subtracting two snapshots of the same histogram (Sub) yields the
// window between them, which is how pgload reports per-interval
// percentiles instead of lifetime ones.
type HistSnapshot struct {
	buckets []int64
	count   int64 // Σ buckets, internally consistent with Quantile
	sum     int64
	max     int64 // lifetime max (windows: resolution-bounded, see Sub)
}

// Snapshot copies the histogram's current state. Each bucket is read
// atomically; under concurrent Records the copy is a slightly-torn but
// monotone view — per-bucket counts never exceed the live histogram's,
// so deltas are never negative. The snapshot's Count is the sum of the
// buckets it read (internally consistent with its Quantile), which may
// trail the live Count by in-flight records.
func (h *Hist) Snapshot() *HistSnapshot {
	s := &HistSnapshot{buckets: make([]int64, histBuckets)}
	for i := range h.buckets {
		b := atomic.LoadInt64(&h.buckets[i])
		s.buckets[i] = b
		s.count += b
	}
	s.sum = atomic.LoadInt64(&h.sum)
	s.max = atomic.LoadInt64(&h.max)
	return s
}

// Sub returns the window between prev and s (s must be the later
// snapshot of the same histogram; a nil prev means "since zero"). The
// window's Max is reconstructed from its highest non-empty bucket, so it
// is accurate to bucket resolution (~1.6%) rather than exact.
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	d := &HistSnapshot{buckets: make([]int64, histBuckets)}
	hi := -1
	for i := range s.buckets {
		v := s.buckets[i]
		if prev != nil {
			v -= prev.buckets[i]
		}
		if v < 0 {
			v = 0 // torn snapshots can't produce negatives, but stay safe
		}
		d.buckets[i] = v
		d.count += v
		if v > 0 {
			hi = i
		}
	}
	d.sum = s.sum
	if prev != nil {
		d.sum -= prev.sum
	}
	if hi >= 0 {
		d.max = bucketValue(hi)
	}
	return d
}

// Count returns the snapshot's observation count.
func (s *HistSnapshot) Count() int64 { return s.count }

// Max returns the snapshot's largest value (bucket-resolution for
// windowed snapshots produced by Sub).
func (s *HistSnapshot) Max() time.Duration { return time.Duration(s.max) }

// Mean returns the snapshot's arithmetic mean.
func (s *HistSnapshot) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(s.sum / s.count)
}

// Quantile returns the snapshot's q-quantile to bucket resolution.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	target := int64(q*float64(s.count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.count {
		target = s.count
	}
	var cum int64
	for i, b := range s.buckets {
		cum += b
		if cum >= target {
			return time.Duration(bucketValue(i))
		}
	}
	return time.Duration(s.max)
}
