package sdn

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/serve"
	"accelcloud/internal/trace"
	"accelcloud/internal/wire"
	"accelcloud/internal/workers"
)

// statusClientClosedRequest is nginx's 499: the client abandoned the
// request before the backend hop ran. A 4xx-class code, so the rpc
// retry budget never re-sends it.
const statusClientClosedRequest = 499

// FrontEnd is the real (HTTP) SDN-accelerator: it terminates client
// offloading requests, routes them to registered surrogate back-ends by
// acceleration group, measures the Fig 7a timing components, and logs
// each request to the trace sink the predictor consumes.
//
// The data plane is the lock-free internal/router: per-group pools are
// published as immutable RCU snapshots, so the request hot path (pick,
// release, drop accounting, /stats) acquires no mutexes while the
// control plane (Register, Drain, Remove — driven by the autoscaling
// loop, DESIGN.md §5–§6) republishes snapshots under its own small
// mutex. The pick policy (round-robin, least-inflight, or
// power-of-two-choices) is fixed at construction.
//
// The control plane is the embedded router.Control, so its levers are
// the router's own methods, documented once there.
type FrontEnd struct {
	router.Control

	log trace.Sink
	// processingDelay artificially reproduces the paper's ≈150 ms
	// front-end overhead when non-zero (useful for demos; tests keep
	// it 0).
	processingDelay time.Duration

	// rt is the same router as Control, held concretely for the data
	// plane (Pick, Release, CountDrop, Stats) the hot path calls.
	rt *router.Router

	// coldAfter/coldStart are the scale-to-zero knobs (WithColdPool):
	// SweepCold parks backends idle longer than coldAfter, and the
	// request that reactivates a parked backend sleeps coldStart.
	coldAfter time.Duration
	coldStart time.Duration

	// observer, when set, receives every backend hop's outcome — the
	// passive signal feed of the failure detector. Written once in New;
	// late binding goes through an ObserverRef.
	observer Observer

	// idem deduplicates retried and hedged re-sends of keyed requests,
	// so a side-effecting task never executes twice for one logical
	// call (keyless requests bypass it entirely).
	idem idemCache

	// region names the geographic region this front-end serves
	// (WithRegion); spilled counts absorbed cross-region requests —
	// arrivals whose Origin names a different home region.
	region  string
	spilled atomic.Int64

	// metrics is the WithMetrics instrumentation; nil keeps the request
	// path entirely uninstrumented.
	metrics *feMetrics
}

// Observer is the per-request outcome hook the failure detector
// subscribes to: the routed group and backend, the hop error (nil on
// success), and the backend round trip in milliseconds.
type Observer func(group int, url string, err error, latencyMs float64)

// sinkCounters is the shed/error surface a lossy trace sink exposes
// (trace.Async qualifies); /stats reports it so dropped trace records
// are visible at runtime.
type sinkCounters interface {
	Dropped() int64
	SinkErrors() int64
}

// SweepCold parks every backend that has been idle (no in-flight or
// queued work, no Release) for at least the WithColdPool threshold —
// the scale-to-zero janitor. Daemons call it on a ticker; hermetic
// benches call it with virtual now. A no-op (returning 0) unless the
// front-end was built WithColdPool. Returns the number of backends
// parked.
func (f *FrontEnd) SweepCold(now time.Time) int {
	if f.coldAfter <= 0 {
		return 0
	}
	return f.rt.MarkIdleCold(f.coldAfter, now)
}

// ColdStartLatency reports the configured per-activation latency (the
// cost the autoscale model charges per activation).
func (f *FrontEnd) ColdStartLatency() time.Duration { return f.coldStart }

// Spilled reports how many cross-region requests this front-end has
// absorbed: arrivals whose Origin named a different home region.
func (f *FrontEnd) Spilled() int64 { return f.spilled.Load() }

// Handler serves the front-end protocol:
//
//	POST /offload        — route a client request to its acceleration group
//	POST /offload/batch  — execute a chain of calls in one round trip
//	GET  /healthz        — liveness
//	GET  /stats          — counters, backend registry, and per-backend states
func (f *FrontEnd) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(rpc.PathOffload, f.handleOffload)
	mux.HandleFunc(rpc.PathOffloadBatch, f.handleOffloadBatch)
	mux.HandleFunc(rpc.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		rpc.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc(rpc.PathStats, func(w http.ResponseWriter, r *http.Request) {
		// One atomic snapshot load; encoding happens outside any
		// critical section — a slow client can no longer stall the
		// routing plane.
		st := f.rt.Stats()
		groups := make([]int, 0, len(st.Pools))
		for g := range st.Pools {
			groups = append(groups, g)
		}
		sort.Ints(groups)
		payload := struct {
			Routed   int64                        `json:"routed"`
			Dropped  int64                        `json:"dropped"`
			Policy   string                       `json:"policy"`
			Region   string                       `json:"region,omitempty"`
			Spilled  int64                        `json:"spilled"`
			Groups   []int                        `json:"groups"`
			Backends map[int]int                  `json:"backends"`
			Pools    map[int][]router.BackendInfo `json:"pools"`
			// Trace-sink health: records shed by a full async buffer
			// and sink append failures. Zero unless the sink exposes
			// counters (trace.Async does).
			TraceDropped    int64 `json:"traceDropped"`
			TraceSinkErrors int64 `json:"traceSinkErrors"`
		}{Routed: st.Routed, Dropped: st.Dropped, Policy: f.rt.Policy().Name(),
			Region: f.region, Spilled: f.spilled.Load(),
			Groups: groups, Backends: map[int]int{}, Pools: st.Pools}
		for g, infos := range st.Pools {
			payload.Backends[g] = len(infos)
		}
		if sc, ok := f.log.(sinkCounters); ok {
			payload.TraceDropped = sc.Dropped()
			payload.TraceSinkErrors = sc.SinkErrors()
		}
		rpc.WriteJSON(w, http.StatusOK, payload)
	})
	return mux
}

func (f *FrontEnd) handleOffload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpc.WriteJSON(w, http.StatusMethodNotAllowed, rpc.OffloadResponse{Error: "POST only"})
		return
	}
	var req rpc.OffloadRequest
	if err := rpc.ReadJSON(r, &req); err != nil {
		rpc.WriteJSON(w, http.StatusBadRequest, rpc.OffloadResponse{Error: err.Error()})
		return
	}
	resp, code := f.Offload(r.Context(), req)
	rpc.WriteJSON(w, code, resp)
}

// handleOffloadBatch executes a chain of calls in one HTTP round trip —
// the JSON compat form of a binary batch frame, with the same per-call
// fan-out through the router.
func (f *FrontEnd) handleOffloadBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpc.WriteJSON(w, http.StatusMethodNotAllowed, rpc.BatchResponse{})
		return
	}
	var batch rpc.BatchRequest
	if err := rpc.ReadJSON(r, &batch); err != nil {
		rpc.WriteJSON(w, http.StatusBadRequest, rpc.BatchResponse{})
		return
	}
	if len(batch.Calls) == 0 || len(batch.Calls) > wire.MaxBatchCalls {
		rpc.WriteJSON(w, http.StatusBadRequest, rpc.BatchResponse{})
		return
	}
	rpc.WriteJSON(w, http.StatusOK, f.offloadBatch(r.Context(), batch))
}

// offloadBatch fans a chain out per call, so the data plane's
// accounting (picks, in-flight counters, health observations, chaos
// injection) is identical whether calls arrive alone or chained.
func (f *FrontEnd) offloadBatch(ctx context.Context, batch rpc.BatchRequest) rpc.BatchResponse {
	results := make([]rpc.BatchResult, len(batch.Calls))
	workers.Each(len(batch.Calls), func(i int) {
		resp, code := f.Offload(ctx, batch.Calls[i])
		results[i] = rpc.BatchResult{Code: code, Resp: resp}
	})
	return rpc.BatchResponse{Results: results}
}

// Offload routes one request end to end — validation, idempotency
// dedup, pick, proxy hop, release, observation, trace logging — and
// returns the response plus its HTTP-equivalent status code. It is the
// protocol-neutral core both the JSON handler and the binary frame
// server dispatch into.
func (f *FrontEnd) Offload(ctx context.Context, req rpc.OffloadRequest) (rpc.OffloadResponse, int) {
	m := f.metrics
	if m == nil {
		return f.offload(ctx, req)
	}
	start := time.Now()
	resp, code := f.offload(ctx, req)
	m.offloads.Inc()
	if code != http.StatusOK {
		m.errors.Inc()
	}
	m.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if sp := resp.Span; sp != nil {
		m.sampled.Inc()
		m.hopQueue.Observe(sp.QueueMs)
		m.hopLinger.Observe(sp.LingerMs)
		m.hopCold.Observe(sp.ColdMs)
		m.hopNet.Observe(sp.NetworkMs)
		m.hopExec.Observe(sp.ExecMs)
	}
	return resp, code
}

func (f *FrontEnd) offload(ctx context.Context, req rpc.OffloadRequest) (rpc.OffloadResponse, int) {
	if err := req.Validate(); err != nil {
		return rpc.OffloadResponse{Error: err.Error()}, http.StatusBadRequest
	}
	if f.region != "" && req.Origin != "" && req.Origin != f.region {
		// A device homed elsewhere spilled (or failed) over into this
		// region; the counter is the /stats evidence the geo smoke and
		// chaos suites assert on.
		f.spilled.Add(1)
	}
	if req.IdemKey != "" {
		return f.idem.do(ctx, req.IdemKey, func() (rpc.OffloadResponse, int) {
			return f.offloadOnce(ctx, req)
		})
	}
	return f.offloadOnce(ctx, req)
}

// offloadOnce is one actual trip through the router and the backend.
func (f *FrontEnd) offloadOnce(ctx context.Context, req rpc.OffloadRequest) (rpc.OffloadResponse, int) {
	routeStart := time.Now()
	if f.processingDelay > 0 {
		time.Sleep(f.processingDelay)
	}
	picked, err := f.rt.Pick(req.Group)
	if err != nil {
		// Saturation (every queue full) and no-backend alike are 503s;
		// the body carries the queue-full marker when it applies, so
		// rpc.IsQueueFull classifies the rejection client-side.
		f.rt.CountDrop()
		return rpc.OffloadResponse{Error: err.Error()}, http.StatusServiceUnavailable
	}
	var coldMs float64
	if picked.ColdStarted() && f.coldStart > 0 {
		// This request woke a parked backend; charge it the cold start
		// (the activation count reaches the autoscale cost model via
		// TakeActivations).
		coldWait := time.Now()
		select {
		case <-time.After(f.coldStart):
			coldMs = float64(time.Since(coldWait)) / float64(time.Millisecond)
		case <-ctx.Done():
			// The client hung up during the activation wait: drop
			// without charging the backend path — no dispatch on a dead
			// context, no observer signal that could push the failure
			// detector toward ejecting a healthy backend.
			f.rt.Release(picked, false)
			return rpc.OffloadResponse{Error: ctx.Err().Error()}, statusClientClosedRequest
		}
	}
	routingMs := float64(time.Since(routeStart)) / float64(time.Millisecond)

	backendStart := time.Now()
	var resp rpc.ExecuteResponse
	var queueWait serve.Timing
	if q := picked.Queue(); q != nil {
		resp, queueWait, err = q.SubmitTimed(ctx, rpc.ExecuteRequest{State: req.State})
	} else {
		resp, err = picked.Client().Execute(ctx, rpc.ExecuteRequest{State: req.State})
	}
	backendTotalMs := float64(time.Since(backendStart)) / float64(time.Millisecond)
	f.rt.Release(picked, err == nil)
	if errors.Is(err, serve.ErrQueueFull) {
		// Lost the Submit race after an unsaturated Pick: backpressure,
		// not a backend fault — no observer signal, plain 503 with the
		// queue-full marker for the client's re-route retry.
		return rpc.OffloadResponse{Error: err.Error()}, http.StatusServiceUnavailable
	}
	if f.observer != nil {
		f.observer(req.Group, picked.URL(), err, backendTotalMs)
	}
	if err != nil {
		return rpc.OffloadResponse{Error: err.Error()}, http.StatusBadGateway
	}
	// T2 is the backend round trip minus the execution itself.
	t2Ms := backendTotalMs - resp.CloudMs
	if t2Ms < 0 {
		t2Ms = 0
	}
	// A non-zero SpanID marks a trace-sampled request: assemble the
	// per-hop breakdown once and share the same *Span between the
	// response and the trace record. The network hop excludes the
	// admission waits the queue itself billed, so the hops stay
	// disjoint and sum to ≈RTT − routing.
	var span *wire.Span
	if req.SpanID != 0 {
		netMs := t2Ms - queueWait.QueueMs - queueWait.LingerMs
		if netMs < 0 {
			netMs = 0
		}
		span = &wire.Span{
			ID:        req.SpanID,
			QueueMs:   queueWait.QueueMs,
			LingerMs:  queueWait.LingerMs,
			ColdMs:    coldMs,
			NetworkMs: netMs,
			ExecMs:    resp.CloudMs,
			Hops:      1,
		}
	}
	if f.log != nil {
		// One clock read serves both the record timestamp and the RTT.
		now := time.Now()
		// Log failures must not fail the request path.
		_ = f.log.Append(trace.Record{
			Timestamp:    now,
			UserID:       req.UserID,
			Group:        req.Group,
			BatteryLevel: req.BatteryLevel,
			RTT:          now.Sub(routeStart),
			Span:         span,
		})
	}
	return rpc.OffloadResponse{
		Result: resp.Result,
		Server: resp.Server,
		Group:  req.Group,
		Timings: rpc.Timings{
			RoutingMs: routingMs,
			BackendMs: t2Ms,
			CloudMs:   resp.CloudMs,
		},
		Span: span,
	}, http.StatusOK
}

// ServeBinary serves the framed protocol on lis until the listener
// fails or the returned server is Closed: the same Offload core behind
// binary frames on a raw TCP listener, with batch frames fanned out per
// call by the wire server.
func (f *FrontEnd) ServeBinary(lis net.Listener) (*wire.Server, error) {
	srv := &wire.Server{H: wire.Handlers{Offload: f.Offload}}
	go func() { _ = srv.Serve(lis) }()
	return srv, nil
}

// WaitHealthy polls a server's health endpoint until it responds or the
// context expires — a convenience for cluster bring-up in examples and
// tests.
func WaitHealthy(ctx context.Context, baseURL string) error {
	client := rpc.NewClient(baseURL)
	for {
		if err := client.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sdn: %s never became healthy: %w", baseURL, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}
