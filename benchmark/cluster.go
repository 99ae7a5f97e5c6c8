package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/obs"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/tasks"
	"accelcloud/internal/trace"
)

const (
	clusterGroups       = 2
	surrogatesPerGroup  = 2
	queueLimit          = 2
	queueDepth          = 256
	maxBatch            = 8
	batchLinger         = time.Millisecond
	retryAttempts       = 3
	retryBase, retryMax = time.Millisecond, 10 * time.Millisecond
)

// cluster is the stack under test, wired the way cmd/sdnd and
// cmd/surrogated wire it: an async-traced, metrics-instrumented
// round-robin front-end over 2 groups × 2 surrogates, every listener on
// 127.0.0.1:0, and one device-side rpc.Client. Both servers listen on
// both protocols (-proto both); the workload picks which URLs are used.
type cluster struct {
	fe         *sdn.FrontEnd
	async      *trace.Async
	surrogates []*dalvik.Surrogate
	client     *rpc.Client
	// stop tears the listeners down, last started first.
	stop []func()
	// backends are the registered pairs, for teardown.
	backends []backend
}

type backend struct {
	group int
	url   string
}

// serveHTTP serves handler on a fresh loopback port; stop closes the
// server and waits for it to return.
func serveHTTP(handler http.Handler) (addr string, stop func(), err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns ErrServerClosed on Close
	}()
	return lis.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

func bootCluster(w workload, seed int64) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	async, err := trace.NewAsync(trace.NewStore(), 0, 0)
	if err != nil {
		return nil, err
	}
	c.async = async
	metrics := obs.NewRegistry()
	metrics.CounterFunc("accel_trace_dropped_total", "trace records shed by the async sink's full buffer",
		func() float64 { return float64(async.Dropped()) })
	metrics.CounterFunc("accel_trace_sink_errors_total", "trace records the downstream sink failed to append",
		func() float64 { return float64(async.SinkErrors()) })
	opts := []sdn.Option{sdn.WithTrace(async), sdn.WithMetrics(metrics)}
	if w.queued {
		opts = append(opts, sdn.WithQueue(queueLimit, queueDepth), sdn.WithBatching(maxBatch, batchLinger))
	}
	c.fe, err = sdn.New(opts...)
	if err != nil {
		return nil, err
	}
	for g := 1; g <= clusterGroups; g++ {
		for i := 0; i < surrogatesPerGroup; i++ {
			sur, err := dalvik.NewSurrogate(fmt.Sprintf("surrogate-g%d-%d", g, i), 0)
			if err != nil {
				return nil, err
			}
			if err := sur.PushPool(tasks.DefaultPool()); err != nil {
				return nil, err
			}
			c.surrogates = append(c.surrogates, sur)
			httpAddr, stop, err := serveHTTP(sur.Handler())
			if err != nil {
				return nil, err
			}
			c.stop = append(c.stop, stop)
			binLis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			binSrv, err := sur.ServeBinary(binLis)
			if err != nil {
				return nil, err
			}
			c.stop = append(c.stop, func() { _ = binSrv.Close() })
			url := rpc.BinaryScheme + binLis.Addr().String()
			if w.jsonHops {
				url = "http://" + httpAddr
			}
			if err := c.fe.Register(g, url); err != nil {
				return nil, err
			}
			c.backends = append(c.backends, backend{g, url})
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", c.fe.Handler())
	mux.Handle("/metrics", metrics.Handler())
	httpAddr, stop, err := serveHTTP(mux)
	if err != nil {
		return nil, err
	}
	c.stop = append(c.stop, stop)
	binLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	binSrv, err := c.fe.ServeBinary(binLis)
	if err != nil {
		return nil, err
	}
	c.stop = append(c.stop, func() { _ = binSrv.Close() })
	front := rpc.BinaryScheme + binLis.Addr().String()
	if w.jsonHops {
		front = "http://" + httpAddr
	}
	var copts []rpc.ClientOption
	if w.queued {
		copts = append(copts, rpc.WithRetry(rpc.NewRetryPolicy(retryAttempts, retryBase, retryMax, seed)))
	}
	c.client = rpc.NewClient(front, copts...)
	if err := c.client.Health(context.Background()); err != nil {
		return nil, fmt.Errorf("front-end not reachable: %w", err)
	}
	ok = true
	return c, nil
}

// close stops every listener (which also drops the connections the
// clients hold to them), deregisters the backends so their admission
// queues stop, and closes the trace sink.
func (c *cluster) close() {
	for i := len(c.stop) - 1; i >= 0; i-- {
		c.stop[i]()
	}
	for _, b := range c.backends {
		_ = c.fe.Evict(b.group, b.url) // only fails for an unknown backend
	}
	if c.async != nil {
		_ = c.async.Close() // always nil
	}
}

// surrogateCounts sums the surrogates' lifetime counters.
func (c *cluster) surrogateCounts() (executed, rejected int64) {
	for _, s := range c.surrogates {
		st := s.Stats()
		executed += st.Executed
		rejected += st.Rejected
	}
	return executed, rejected
}
