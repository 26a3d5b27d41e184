package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// earlyWindow is how far ahead of its due time an idle sender may fire.
// The runtime's timers can oversleep by up to a millisecond when the
// process is idle; sending inside this window keeps that oversleep out
// of the measured latency. An early send is timed from when it was
// sent, a late one from when it was due.
const earlyWindow = time.Millisecond

// loadRun is the outcome of one load phase, open or closed loop.
type loadRun struct {
	lat     []float64 // ms per completed request, from its due time (open loop) or its send (closed loop)
	idx     []int     // schedule position of each lat entry
	late    []float64 // ms each send ran behind its due time (0 when early)
	sent    int
	errs    int // requests that returned an error (transport, status or answer)
	dropped int // requests never sent because the phase hit its hard stop
}

func (r *loadRun) p(q float64) float64 { return quantile(r.lat, q) }

// windowed is windowQuantile over the phase's latencies in schedule
// order.
func (r *loadRun) windowed(q float64) float64 {
	order := make([]int, len(r.idx))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return r.idx[order[a]] < r.idx[order[b]] })
	xs := make([]float64, len(order))
	for k, o := range order {
		xs[k] = r.lat[o]
	}
	return windowQuantile(xs, q)
}

// openLoop sends count requests due at start + i/rate from at most
// workers goroutines. Each goroutine takes the next due request, waits
// for its due time (minus earlyWindow) and sends it; when responses are
// slow the goroutines fall behind schedule and the wait they impose on
// later requests is counted in those requests' latency. Requests still
// unsent slack after the last due time are dropped. send(i) performs
// request i and reports whether it failed.
func openLoop(rate float64, count, workers int, slack time.Duration, send func(i int) error) *loadRun {
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	hardStop := start.Add(time.Duration(float64(count)*interval) + slack)
	var next atomic.Int64
	parts := make([]loadRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part *loadRun) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if time.Now().After(hardStop) {
					part.dropped++
					continue
				}
				if d := time.Until(due) - earlyWindow; d > 0 {
					time.Sleep(d)
				}
				sentAt := time.Now()
				err := send(i)
				end := time.Now()
				begin := due
				late := sentAt.Sub(due)
				if late < 0 {
					begin, late = sentAt, 0
				}
				part.sent++
				if err != nil {
					part.errs++
				}
				part.lat = append(part.lat, millis(end.Sub(begin)))
				part.idx = append(part.idx, i)
				part.late = append(part.late, millis(late))
			}
		}(&parts[w])
	}
	wg.Wait()
	return merge(parts)
}

// merge combines the per-goroutine records of one phase, whose request
// indices share one schedule.
func merge(parts []loadRun) *loadRun {
	out := &loadRun{}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.idx = append(out.idx, p.idx...)
		out.late = append(out.late, p.late...)
		out.sent += p.sent
		out.errs += p.errs
		out.dropped += p.dropped
	}
	return out
}

// closedLoop runs workers back-to-back senders for d: each sends its
// next request as soon as the previous one returns. It returns every
// request's latency in the order the requests were taken, and the
// completed requests per second. send(i) performs request i.
func closedLoop(d time.Duration, workers int, send func(i int) error) (*loadRun, float64) {
	var next atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	parts := make([]loadRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part *loadRun) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if err := send(i); err != nil {
					part.errs++
				}
				part.lat = append(part.lat, millis(time.Since(t0)))
				part.idx = append(part.idx, i)
				part.sent++
			}
		}(&parts[w])
	}
	wg.Wait()
	el := time.Since(start)
	out := merge(parts)
	return out, float64(out.sent) / el.Seconds()
}

// append adds a later phase's requests after r's, keeping time order.
func (r *loadRun) append(o *loadRun) {
	base := 0
	for _, i := range r.idx {
		base = max(base, i+1)
	}
	for k, i := range o.idx {
		r.idx = append(r.idx, base+i)
		r.lat = append(r.lat, o.lat[k])
	}
	r.late = append(r.late, o.late...)
	r.sent += o.sent
	r.errs += o.errs
	r.dropped += o.dropped
}

// sloMS is the p99 latency limit of max_qps_at_slo.
const sloMS = 10.0

// capacitySearch finds the highest offered rate in [lo, hi] whose
// open-loop p99 stays within sloMS with nothing dropped or failed, by
// bisection in log space over steps rungs. rung(rate) runs one rung. It
// returns the best passing rate (lo when no rung passes) and every rung
// run, for accounting.
func capacitySearch(lo, hi float64, steps int, rung func(rate float64) *loadRun) (float64, []*loadRun) {
	best := lo
	var runs []*loadRun
	for s := 0; s < steps; s++ {
		mid := geoMean(lo, hi)
		r := rung(mid)
		runs = append(runs, r)
		if r.dropped == 0 && r.errs == 0 && r.p(0.99) <= sloMS {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best, runs
}
