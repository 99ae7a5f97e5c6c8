package sdn

import (
	"fmt"
	"sync/atomic"
	"time"

	"accelcloud/internal/obs"
	"accelcloud/internal/router"
	"accelcloud/internal/serve"
	"accelcloud/internal/trace"
)

// Option configures a FrontEnd at construction: a built front-end is
// fully configured before it serves its first request.
type Option func(*config) error

type config struct {
	log            trace.Sink
	routeDelay     time.Duration
	policy         router.Policy
	observer       Observer
	backendTimeout time.Duration
	serve          serve.Config
	coldAfter      time.Duration
	coldStart      time.Duration
	region         string
	metrics        *obs.Registry
}

// WithTrace installs the request trace sink (a trace.Store,
// trace.Window, trace.Async, or trace.Tee all fit; nil disables
// logging).
func WithTrace(log trace.Sink) Option {
	return func(c *config) error {
		// A typed-nil *trace.Store or *trace.Window must behave like
		// "logging disabled", not panic on first append.
		if s, ok := log.(*trace.Store); ok && s == nil {
			log = nil
		}
		if w, ok := log.(*trace.Window); ok && w == nil {
			log = nil
		}
		c.log = log
		return nil
	}
}

// WithRouteDelay reproduces the paper's fixed SDN processing overhead
// (≈150 ms in Fig 7a) as an artificial per-request routing delay.
func WithRouteDelay(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("sdn: negative processing delay %v", d)
		}
		c.routeDelay = d
		return nil
	}
}

// WithPolicy selects the pick policy (router.ParsePolicy resolves the
// -policy flag names); nil selects round-robin.
func WithPolicy(p router.Policy) Option {
	return func(c *config) error {
		c.policy = p
		return nil
	}
}

// WithObserver installs the per-request outcome hook the failure
// detector subscribes to. The hook runs on the request path after
// every backend hop — keep it cheap and non-blocking;
// internal/health's Manager.Observe qualifies. For the
// front-end-before-detector construction order, bind through an
// ObserverRef.
func WithObserver(ob Observer) Option {
	return func(c *config) error {
		c.observer = ob
		return nil
	}
}

// WithBackendTimeout bounds the proxy hop to each backend (0 keeps the
// rpc default). A crashed or hung surrogate must fail the hop within
// the failure detector's horizon, not the 30 s default.
func WithBackendTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("sdn: negative backend timeout %v", d)
		}
		c.backendTimeout = d
		return nil
	}
}

// WithQueue puts a bounded admission queue in front of every backend:
// at most limit concurrent dispatches per backend, at most depth
// requests waiting (depth 0 selects serve.DefaultDepth). A full queue
// rejects with serve.ErrQueueFull backpressure and Pick steers around
// saturated backends.
func WithQueue(limit, depth int) Option {
	return func(c *config) error {
		c.serve.Limit = limit
		c.serve.Depth = depth
		return nil
	}
}

// WithBatching coalesces queued same-task calls into one batch
// execution per dispatch: up to maxBatch calls, waiting at most linger
// for the queue to yield more (linger 0 selects serve.DefaultLinger).
// Requires WithQueue.
func WithBatching(maxBatch int, linger time.Duration) Option {
	return func(c *config) error {
		c.serve.MaxBatch = maxBatch
		c.serve.Linger = linger
		return nil
	}
}

// WithColdPool enables scale-to-zero: SweepCold parks backends idle
// for at least after, and the first request that reactivates a parked
// backend pays coldStart of activation latency (charged into the
// autoscale cost model via TakeActivations).
func WithColdPool(after, coldStart time.Duration) Option {
	return func(c *config) error {
		if after <= 0 {
			return fmt.Errorf("sdn: cold-pool idle threshold %v <= 0", after)
		}
		if coldStart < 0 {
			return fmt.Errorf("sdn: negative cold-start latency %v", coldStart)
		}
		c.coldAfter = after
		c.coldStart = coldStart
		return nil
	}
}

// WithRegion names the geographic region this front-end serves (e.g.
// "eu-north"). A regioned front-end counts requests whose Origin names
// a different home region as spilled-over — the /stats signal that
// cross-region traffic is landing here (DESIGN.md §11). Empty (the
// default) disables the accounting.
func WithRegion(name string) Option {
	return func(c *config) error {
		c.region = name
		return nil
	}
}

// WithMetrics registers the front-end's hot-path metrics (offload
// counts, error counts, end-to-end and per-hop latency histograms,
// plus scrape-time router/spillover gauges) in reg, for exposition at
// GET /metrics. Nil (the default) disables instrumentation entirely —
// the request path then carries no metric loads at all, which is the
// "off" arm of obsbench's overhead A/B.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) error {
		c.metrics = reg
		return nil
	}
}

// New builds a front-end from functional options. Zero options give a
// round-robin router with no trace sink, no queueing, and no cold
// pool.
func New(opts ...Option) (*FrontEnd, error) {
	var c config
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if err := c.serve.Validate(); err != nil {
		return nil, err
	}
	rt := router.New(c.policy)
	rt.SetClientTimeout(c.backendTimeout)
	if err := rt.SetServeConfig(c.serve); err != nil {
		return nil, err
	}
	f := &FrontEnd{
		Control:         rt,
		log:             c.log,
		processingDelay: c.routeDelay,
		rt:              rt,
		coldAfter:       c.coldAfter,
		coldStart:       c.coldStart,
		observer:        c.observer,
		region:          c.region,
	}
	if c.metrics != nil {
		f.metrics = newFeMetrics(c.metrics, f)
	}
	return f, nil
}

// ObserverRef late-binds an Observer so construction cycles resolve
// without mutators: the front-end is built with WithObserver(ref.Observe),
// the failure detector is built against the front-end, and ref.Set
// then points the hook at the detector. Unset, Observe is a no-op.
// Set is atomic, so binding after traffic has started is race-free.
type ObserverRef struct {
	p atomic.Pointer[Observer]
}

// Set binds (or, with nil, unbinds) the target observer.
func (r *ObserverRef) Set(ob Observer) {
	if ob == nil {
		r.p.Store(nil)
		return
	}
	r.p.Store(&ob)
}

// Observe forwards to the bound observer, dropping the call when none
// is bound yet.
func (r *ObserverRef) Observe(group int, url string, err error, latencyMs float64) {
	if ob := r.p.Load(); ob != nil {
		(*ob)(group, url, err, latencyMs)
	}
}
