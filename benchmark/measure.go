package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"accelcloud/internal/rpc"
)

// runner drives one booted cluster with one schedule.
type runner struct {
	w      workload
	sched  *schedule
	c      *cluster
	spanID atomic.Uint64
	// lat, lag and hops are per-window scratch, reused so the generator
	// adds no allocation of its own to the per-offload counts.
	lat  []float64
	lag  []float64
	hops []hopRec
	// refused counts queue-full refusals, the only failure fanin_queued
	// tolerates without failing the run.
	refused atomic.Int64
}

// hopRec is what one traced call yields: the client-side root span and
// the per-hop durations the response carried, all in milliseconds.
type hopRec struct {
	startNs                      int64 // since window start
	lat, routing, backend, cloud float64
	queue, linger, network, exec float64
	id                           uint64
}

func newRunner(w workload, sched *schedule, c *cluster) *runner {
	return &runner{
		w: w, sched: sched, c: c,
		lat: make([]float64, max(w.window, w.warmup)),
		lag: make([]float64, w.window),
	}
}

func (r *runner) callers() int {
	if r.w.callers > 0 {
		return r.w.callers
	}
	return runtime.NumCPU()
}

// one sends request i of the cycle and verifies the answer. It returns
// the call's duration and whether the output was correct; with traced
// set the request carries a SpanID and the response's hop fields are
// copied into rec.
func (r *runner) one(i int, traced bool, rec *hopRec) (time.Duration, bool) {
	in := &r.sched.inputs[i%len(r.sched.inputs)]
	req := in.req
	if traced {
		req.SpanID = r.spanID.Add(1)
	}
	t0 := time.Now()
	resp, err := r.c.client.Offload(context.Background(), req)
	d := time.Since(t0)
	if err != nil {
		if rpc.IsQueueFull(err) {
			r.refused.Add(1)
		}
		return d, false
	}
	if traced && rec != nil {
		rec.id = req.SpanID
		rec.routing, rec.backend, rec.cloud = resp.Timings.RoutingMs, resp.Timings.BackendMs, resp.Timings.CloudMs
		if sp := resp.Span; sp != nil {
			rec.queue, rec.linger, rec.network, rec.exec = sp.QueueMs, sp.LingerMs, sp.NetworkMs, sp.ExecMs
		}
	}
	return d, sameResult(resp.Result, in.want)
}

// window is one measured window's raw record.
type window struct {
	n, failed   int
	wallS, cpuS float64
	mallocs     uint64
	bytes       uint64
	p50, p90    float64 // ms
	p99         float64 // ms, a diagnostic: see estimate
	meanLat     float64 // ms, successful calls
	lagP99      float64 // ms, open loop
	inflightEnd int     // calls in flight when the last arrival was sent, open loop
	traced      bool
	hops        hopMedians
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs one window of n offloads and records wall time, process
// CPU, heap allocation deltas and every latency. A collection runs first
// so each window starts from the same heap state; it and the MemStats
// reads are outside the timed region.
func (r *runner) measure(n int, traced bool) window {
	if traced && len(r.hops) < n {
		r.hops = make([]hopRec, n)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	var win window
	if r.w.openLoop {
		win = r.openWindow(n, traced)
	} else {
		win = r.closedWindow(n, traced)
	}
	win.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	win.mallocs, win.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	win.n, win.traced = n, traced

	lat := r.lat[:n]
	var sum float64
	for _, l := range lat {
		if !math.IsInf(l, 1) {
			sum += l
		}
	}
	if ok := n - win.failed; ok > 0 {
		win.meanLat = sum / float64(ok)
	}
	sort.Float64s(lat)
	win.p50, win.p90, win.p99 = percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99)
	if r.w.openLoop {
		lag := r.lag[:n]
		sort.Float64s(lag)
		win.lagP99 = percentile(lag, 0.99)
	}
	if traced {
		win.hops = medianHops(r.hops[:n])
	}
	return win
}

// closedWindow: callers goroutines share one counter and each sends its
// next request when its previous one returned.
func (r *runner) closedWindow(n int, traced bool) window {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := r.callers(); c > 0; c-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var rec *hopRec
				if traced {
					rec = &r.hops[i]
					*rec = hopRec{startNs: int64(time.Since(start))}
				}
				d, ok := r.one(i, traced, rec)
				ms := float64(d) / float64(time.Millisecond)
				if traced {
					rec.lat = ms
				}
				if !ok {
					// A failed call misses every latency limit: it sorts
					// beyond the window's slowest success.
					ms = math.Inf(1)
					failed.Add(1)
				}
				r.lat[i] = ms
			}
		}()
	}
	wg.Wait()
	return window{wallS: time.Since(start).Seconds(), failed: int(failed.Load())}
}

// openWindow sends request i at start+due[i] whether or not earlier ones
// have returned, and times each from its due time, so a stall is charged
// to every request it delayed. The sender sleeps in nanosleep, which
// wakes within ≈0.1 ms; time.Sleep wakes an idle process through the
// netpoller at 1 ms granularity, which alone made the median send 0.5 ms
// late.
func (r *runner) openWindow(n int, traced bool) window {
	var failed, inflight atomic.Int64
	var wg sync.WaitGroup
	var inflightEnd int64
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(r.sched.due[i])
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake only sends early by less than the clock reads
		}
		r.lag[i] = float64(time.Since(due)) / float64(time.Millisecond)
		if i == n-1 {
			inflightEnd = inflight.Load()
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *hopRec
			if traced {
				rec = &r.hops[i]
				*rec = hopRec{startNs: int64(time.Since(start))}
			}
			d, ok := r.one(i, traced, rec)
			ms := float64(time.Since(due)) / float64(time.Millisecond)
			inflight.Add(-1)
			if traced {
				rec.lat = float64(d) / float64(time.Millisecond)
			}
			if !ok {
				ms = math.Inf(1)
				failed.Add(1)
			}
			r.lat[i] = ms
		}()
	}
	wg.Wait()
	// Completions over the time to the last one: the arrivals span the
	// window's nominal length, so this reads the offered rate (to within
	// the last call's latency) unless a backlog grows.
	wall := time.Since(start)
	return window{wallS: wall.Seconds(), failed: int(failed.Load()), inflightEnd: int(inflightEnd)}
}

// warm sends the fixed warm-up count in a closed loop and reports
// failures; its latencies are discarded.
func (r *runner) warm() int {
	return r.closedWindow(r.w.warmup, false).failed
}

// estimates are the seven end-to-end numbers (set-up is added by the
// caller) plus the all-window medians kept as diagnostics.
type estimates struct {
	offloadsPerS, p50, p90, cpuUs, allocs, bytes float64
	p99                                          float64
	allOffloadsPerS, allP50, allP99, allCpuUs    float64
	windowSpread                                 float64
	kept                                         []int
	attempted, failed                            int
}

// estimate applies the estimator rules to the untraced (or, with traced
// set, the traced) windows.
func estimate(w workload, wins []window, traced bool) estimates {
	var sel []window
	var at []int // sel[i] is wins[at[i]]
	for i, win := range wins {
		if win.traced == traced {
			sel = append(sel, win)
			at = append(at, i)
		}
	}
	var e estimates
	if len(sel) == 0 {
		return e
	}
	n := len(sel)
	rate, p50, p90, p99, cpu, cost := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var mallocs, bytes uint64
	for i, win := range sel {
		done := float64(win.n - win.failed)
		rate[i] = done / win.wallS
		p50[i], p90[i], p99[i] = win.p50, win.p90, win.p99
		cpu[i] = win.cpuS * 1e6 / done
		cost[i] = win.wallS / done
		if w.openLoop {
			cost[i] = win.meanLat
		}
		mallocs += win.mallocs
		bytes += win.bytes
		e.attempted += win.n
		e.failed += win.failed
	}
	kept := keptWindows(cost)
	e.offloadsPerS = mean(pick(rate, kept))
	e.p50 = mean(pick(p50, kept))
	// Per-window percentiles, never pooled ones: one host stall would own
	// a pooled tail. The gated tail is the p90: on the sizing box the
	// host's minutes-long slow episodes move the open loop's p50 by 10 %,
	// its p90 by 15 % and its p99 by 25–30 % (queueing and GC amplify
	// them), so ten runs' p99s spread wider than any bound allowed. The
	// p99 stays a printed diagnostic.
	e.p90 = mean(pick(p90, kept))
	e.p99 = mean(pick(p99, kept))
	e.cpuUs = mean(pick(cpu, kept))
	for _, k := range kept {
		e.kept = append(e.kept, at[k])
	}
	// Allocation counts do not depend on how quiet the host was, and
	// trace.Store grows its slice in rare large steps, so they are taken
	// over every window: the same windows in every run.
	done := float64(e.attempted - e.failed)
	e.allocs = float64(mallocs) / done
	e.bytes = float64(bytes) / done
	e.allOffloadsPerS, e.allP50, e.allP99, e.allCpuUs = median(rate), median(p50), median(p99), median(cpu)
	if n >= 2 {
		e.windowSpread = spread(rate)
	}
	return e
}
