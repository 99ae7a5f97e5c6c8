// Command sdnd runs the SDN-accelerator front-end over HTTP, routing
// offloading requests to registered surrogate back-ends by acceleration
// group and logging every request.
//
// Usage:
//
//	sdnd -listen 127.0.0.1:9100 \
//	     -backend 1=http://127.0.0.1:9101 \
//	     -backend 2=bin://127.0.0.1:9201 \
//	     -proto both -listen-bin 127.0.0.1:9103 \
//	     -policy p2c \
//	     -probe 250ms \
//	     -trace /tmp/requests.csv
//
// -proto both additionally serves the binary framed protocol
// (internal/wire) on -listen-bin; clients select it with a
// bin://host:port front-end URL. A bin:// -backend URL makes the
// front-end↔surrogate hop binary too (the surrogate must serve
// -proto binary|both); health probes follow the backend's protocol.
//
// -policy selects the routing pick policy (rr, least-inflight, p2c, or
// canary:version=weight); request logging runs through an async
// batching sink so the routing hot path never blocks on trace
// persistence. -probe enables the failure detector (internal/health):
// backends failing consecutive heartbeats — or bursting errors on the
// data path — are ejected from rotation and reinstated when they
// recover, so a killed surrogate stops blackholing its group within a
// few probe intervals.
//
// -region names the region this front-end serves in a multi-region
// deployment: /stats reports the region label and a spilled counter of
// calls whose origin stamp names another home region (cross-region
// spillover absorbed here). Devices route across regions with the
// loadgen -regions flag (or internal/geo directly).
//
// GET /metrics serves the front-end's counters, gauges, and latency
// quantiles (request and per-hop) in Prometheus text exposition,
// including the trace-sink shed/error counters; -pprof additionally
// mounts net/http/pprof under /debug/pprof/ (off by default — the
// profiling endpoints expose heap contents).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"net/http/pprof"

	"accelcloud/internal/health"
	"accelcloud/internal/obs"
	"accelcloud/internal/router"
	"accelcloud/internal/sdn"
	"accelcloud/internal/trace"
)

// backendFlags collects repeated -backend group=url[@version] pairs.
// The optional @version suffix labels the backend for the canary pick
// policy ("-policy canary:v2=0.05" routes 5% of picks to @v2 backends).
type backendFlags []struct {
	group   int
	url     string
	version string
}

func (b *backendFlags) String() string { return fmt.Sprintf("%d backends", len(*b)) }

func (b *backendFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("backend %q: want group=url[@version]", v)
	}
	group, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("backend %q: bad group: %w", v, err)
	}
	url, version := parts[1], ""
	// Split the version label off the right so bin://host:port@v2
	// parses; URLs here never carry userinfo.
	if at := strings.LastIndex(url, "@"); at >= 0 {
		url, version = url[:at], url[at+1:]
	}
	*b = append(*b, struct {
		group   int
		url     string
		version string
	}{group, url, version})
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdnd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdnd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9100", "HTTP listen address")
	listenBin := fs.String("listen-bin", "127.0.0.1:9103", "binary framed-protocol listen address")
	proto := fs.String("proto", "http", "client-facing protocol: http|binary|both (backends may independently be bin:// URLs)")
	tracePath := fs.String("trace", "", "write the request log as CSV to this path on shutdown")
	delay := fs.Duration("overhead", 0, "artificial routing delay (e.g. 150ms to mimic the paper)")
	policyName := fs.String("policy", "rr", "pick policy: rr|least-inflight|p2c|canary:version=weight")
	probe := fs.Duration("probe", 0, "failure-detector heartbeat period (0 disables health probing)")
	probeTimeout := fs.Duration("probe-timeout", 0, "heartbeat deadline (0 = probe period)")
	probeFail := fs.Int("probe-fail", 2, "consecutive failed probes before ejection")
	probeSucc := fs.Int("probe-succ", 2, "consecutive clean probes before reinstatement")
	passiveErrors := fs.Int("passive-errors", 5, "consecutive data-path errors before passive ejection")
	backendTimeout := fs.Duration("backend-timeout", 0, "surrogate hop deadline (0 = rpc default 30s)")
	queueLimit := fs.Int("queue-limit", 0, "per-backend concurrency limit (0 disables admission queues)")
	queueDepth := fs.Int("queue-depth", 0, "per-backend admission queue depth (0 = default 64; needs -queue-limit)")
	maxBatch := fs.Int("max-batch", 0, "coalesce up to this many queued same-method calls per dispatch (needs -queue-limit)")
	linger := fs.Duration("linger", 0, "max wait to fill a batch (0 = default 2ms; needs -max-batch)")
	coldAfter := fs.Duration("cold-after", 0, "park idle backends in the cold pool after this long (0 disables scale-to-zero)")
	coldStart := fs.Duration("cold-start", 0, "simulated activation latency charged to the first request hitting a cold backend")
	region := fs.String("region", "", "region name this front-end serves (labels /stats and counts spilled-over calls)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the HTTP listener")
	var backends backendFlags
	fs.Var(&backends, "backend", "group=url[@version] surrogate registration (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("at least one -backend group=url is required")
	}
	if *proto != "http" && *proto != "binary" && *proto != "both" {
		return fmt.Errorf("unknown -proto %q (want http|binary|both)", *proto)
	}
	policy, err := router.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	store := trace.NewStore()
	// The durable log hangs off an async batching sink, so appends on
	// the request path are a channel send, not a mutex'd slice append.
	async, err := trace.NewAsync(store, 0, 0)
	if err != nil {
		return err
	}
	// The observer is bound after the health manager exists; the ref
	// breaks the front-end↔manager construction cycle.
	var obsRef sdn.ObserverRef
	// The metrics registry feeds GET /metrics; the front-end registers
	// its hot-path series, the daemon adds the trace-sink health gauges.
	metrics := obs.NewRegistry()
	metrics.CounterFunc("accel_trace_dropped_total", "trace records shed by the async sink's full buffer",
		func() float64 { return float64(async.Dropped()) })
	metrics.CounterFunc("accel_trace_sink_errors_total", "trace records the downstream sink failed to append",
		func() float64 { return float64(async.SinkErrors()) })
	opts := []sdn.Option{
		sdn.WithTrace(async),
		sdn.WithRouteDelay(*delay),
		sdn.WithPolicy(policy),
		sdn.WithObserver(obsRef.Observe),
		sdn.WithMetrics(metrics),
	}
	if *backendTimeout > 0 {
		opts = append(opts, sdn.WithBackendTimeout(*backendTimeout))
	}
	if *queueLimit > 0 {
		opts = append(opts, sdn.WithQueue(*queueLimit, *queueDepth))
	}
	if *maxBatch > 1 {
		opts = append(opts, sdn.WithBatching(*maxBatch, *linger))
	}
	if *coldAfter > 0 {
		opts = append(opts, sdn.WithColdPool(*coldAfter, *coldStart))
	}
	if *region != "" {
		opts = append(opts, sdn.WithRegion(*region))
	}
	fe, err := sdn.New(opts...)
	if err != nil {
		return err
	}
	for _, b := range backends {
		if err := fe.RegisterVersion(b.group, b.url, b.version); err != nil {
			return err
		}
	}
	probing := ""
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	if *probe > 0 {
		mgr, err := health.NewManager(health.Config{
			CP:            fe,
			ProbeInterval: *probe,
			ProbeTimeout:  *probeTimeout,
			FailThreshold: *probeFail,
			SuccThreshold: *probeSucc,
			PassiveErrors: *passiveErrors,
		})
		if err != nil {
			return err
		}
		obsRef.Set(mgr.Observe)
		go mgr.Run(hctx)
		probing = fmt.Sprintf(", probing every %v", *probe)
	}
	if *coldAfter > 0 {
		// Janitor: sweep idle backends into the cold pool at a fraction
		// of the idle threshold so parking lags -cold-after by at most
		// one tick.
		go func() {
			tick := *coldAfter / 4
			if tick < 100*time.Millisecond {
				tick = 100 * time.Millisecond
			}
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-hctx.Done():
					return
				case now := <-t.C:
					fe.SweepCold(now)
				}
			}
		}()
	}
	mux := http.NewServeMux()
	mux.Handle("/", fe.Handler())
	mux.Handle("/metrics", metrics.Handler())
	if *pprofOn {
		// Opt-in only: profiling endpoints expose heap contents and must
		// never be on by default.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: *listen, Handler: mux}
	errCh := make(chan error, 1)
	// The HTTP endpoint also carries /stats and /healthz, so it stays up
	// in every mode; -proto binary|both adds the framed listener.
	go func() { errCh <- srv.ListenAndServe() }()
	binNote := ""
	if *proto == "binary" || *proto == "both" {
		binLis, err := net.Listen("tcp", *listenBin)
		if err != nil {
			return err
		}
		binSrv, err := fe.ServeBinary(binLis)
		if err != nil {
			return err
		}
		defer func() { _ = binSrv.Close() }()
		binNote = fmt.Sprintf(", bin://%s", *listenBin)
	}
	fmt.Printf("sdnd: front-end on %s%s policy %s with backends %v%s\n", *listen, binNote, policy.Name(), fe.Backends(), probing)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
	}
	// Drain in-flight handlers before closing the trace sink, so their
	// records land in the store instead of counting as shed.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shutCtx)
	cancel()
	_ = async.Close()
	if dropped := async.Dropped(); dropped > 0 {
		fmt.Printf("sdnd: warning: %d trace records shed under load\n", dropped)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := trace.WriteCSV(f, store.Snapshot()); err != nil {
			return err
		}
		fmt.Printf("sdnd: wrote %d trace records to %s\n", store.Len(), *tracePath)
	}
	return nil
}
