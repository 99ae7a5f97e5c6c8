package faults

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"accelcloud/internal/autoscale"
	"accelcloud/internal/health"
	"accelcloud/internal/loadgen"
	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/sim"
	"accelcloud/internal/stats"
	"accelcloud/internal/trace"
	"accelcloud/internal/wire"
)

// Config parameterizes one hermetic chaos run: a constant-rate open
// loop replayed slot by slot through the full resilient stack — real
// front-end, chaos-wrapped surrogates, failure detector, self-healing
// reconciler — with a deterministic fault schedule injected at slot
// boundaries.
type Config struct {
	// Seed roots everything: request schedule, fault schedule, fault
	// parameters, retry jitter, controller substreams.
	Seed int64
	// RateHz is the aggregate arrival rate (0 selects 48).
	RateHz float64
	// Users is the simulated device count the rate is spread over
	// (0 selects 8).
	Users int
	// Slots is the run length (0 selects 8).
	Slots int
	// SlotLen is the provisioning slot length (0 selects 500ms).
	SlotLen time.Duration
	// Groups are the managed acceleration groups; set Min >= 2 so
	// ejection has somewhere to shift traffic. Required.
	Groups []autoscale.GroupSpec
	// Policy names the pick policy (empty selects round-robin).
	Policy string
	// FixedTask pins every request to one pool task (empty = random).
	FixedTask string
	// Fault counts, drawn into the deterministic schedule.
	Crashes       int
	Hangs         int
	LatencySpikes int
	ErrorBursts   int
	SlowNets      int
	// MaxInFlight bounds concurrent outstanding requests (0 selects 64).
	MaxInFlight int
	// RequestTimeout bounds one client call end to end, retries and
	// hedges included (0 selects 2s).
	RequestTimeout time.Duration
	// BackendTimeout bounds the front-end's proxy hop (0 selects 500ms)
	// — the horizon within which a hung surrogate fails.
	BackendTimeout time.Duration
	// RetryAttempts is the client's total attempt budget (0 selects 3).
	RetryAttempts int
	// RetryBase / RetryMax shape the backoff (0 selects 10ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeDelay launches a second request against stragglers
	// (0 selects 250ms; negative disables hedging).
	HedgeDelay time.Duration
	// Failure-detector knobs (0 selects 25ms / 250ms / 2 / 2 / 4).
	// The probe timeout is deliberately ~10x a healthy loopback
	// heartbeat: the CI gate requires the repair decision digest to
	// reproduce exactly, so a loaded runner must not be able to turn a
	// healthy backend Down with two spuriously slow probes.
	ProbeInterval  time.Duration
	ProbeTimeout   time.Duration
	FailThreshold  int
	SuccThreshold  int
	PassiveErrors  int
	LatencyLimitMs float64
	// WarmPool is the pre-booted spare count repairs draw from
	// (0 selects 2).
	WarmPool int
	// SpanSample samples every Nth request as a trace span with
	// per-hop timings in the report (0 disables sampling).
	SpanSample int
	// SLO, when non-nil, is evaluated into the report.
	SLO *loadgen.SLO
}

func (c Config) withDefaults() (Config, error) {
	if c.RateHz == 0 {
		c.RateHz = 48
	}
	if c.RateHz < 0 {
		return c, fmt.Errorf("faults: rate %v < 0", c.RateHz)
	}
	if c.Users == 0 {
		c.Users = 8
	}
	if c.Users < 0 {
		return c, fmt.Errorf("faults: users %d < 0", c.Users)
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Slots < 2 {
		return c, fmt.Errorf("faults: need at least 2 slots, got %d", c.Slots)
	}
	if c.SlotLen == 0 {
		c.SlotLen = 500 * time.Millisecond
	}
	if c.SlotLen < 0 {
		return c, fmt.Errorf("faults: slot length %v < 0", c.SlotLen)
	}
	if len(c.Groups) == 0 {
		return c, errors.New("faults: no group specs")
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxInFlight < 0 {
		return c, fmt.Errorf("faults: max in flight %d < 0", c.MaxInFlight)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.BackendTimeout == 0 {
		c.BackendTimeout = 500 * time.Millisecond
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBase == 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 2
	}
	if c.SuccThreshold == 0 {
		c.SuccThreshold = 2
	}
	if c.PassiveErrors == 0 {
		c.PassiveErrors = 4
	}
	if c.WarmPool == 0 {
		c.WarmPool = 2
	}
	return c, nil
}

// timedHealth wraps the failure detector's view to timestamp repair
// acknowledgements, so the report can measure injection→repair latency.
type timedHealth struct {
	m  *health.Manager
	mu sync.Mutex
	// forgotten records the first Forget time per URL.
	forgotten map[string]time.Time
}

func (t *timedHealth) Down(group int) []string { return t.m.Down(group) }

func (t *timedHealth) Forget(group int, url string) {
	t.mu.Lock()
	if _, ok := t.forgotten[url]; !ok {
		t.forgotten[url] = time.Now()
	}
	t.mu.Unlock()
	t.m.Forget(group, url)
}

func (t *timedHealth) forgetTime(url string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.forgotten[url]
	return at, ok
}

// targetURL resolves a scheduled event to a live backend. Draining
// backends are excluded — their membership changes are the control
// plane's deterministic doing, while ejection state (which may flip on
// detector timing) is deliberately ignored so target resolution stays
// a pure function of the deterministic registry.
func targetURL(fe *sdn.FrontEnd, ev Event) string {
	var candidates []string
	for _, info := range fe.Pool(ev.Group) {
		if info.State != router.StateDraining {
			candidates = append(candidates, info.URL)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[ev.Backend%len(candidates)]
}

// Run executes the chaos scenario and builds its report. Two runs with
// the same seed inject bit-identical fault timelines and produce
// bit-identical repair decision digests at any MaxInFlight; the
// measured latencies, ejection delays, and hedge outcomes are the
// run's live measurements.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	policy, err := router.ParsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	groupIDs := make([]int, 0, len(cfg.Groups))
	for _, g := range cfg.Groups {
		groupIDs = append(groupIDs, g.Group)
	}
	sort.Ints(groupIDs)

	root := sim.NewRNG(cfg.Seed)
	sched, err := Generate(root.Sub("fault-schedule"), ScheduleConfig{
		Slots:         cfg.Slots,
		Groups:        groupIDs,
		Crashes:       cfg.Crashes,
		Hangs:         cfg.Hangs,
		LatencySpikes: cfg.LatencySpikes,
		ErrorBursts:   cfg.ErrorBursts,
		SlowNets:      cfg.SlowNets,
	})
	if err != nil {
		return nil, err
	}
	plan, err := loadgen.BuildPlan(loadgen.Config{
		Mode:       loadgen.ModeInterArrival,
		Users:      cfg.Users,
		Duration:   time.Duration(cfg.Slots) * cfg.SlotLen,
		RateHz:     cfg.RateHz / float64(cfg.Users),
		Seed:       cfg.Seed,
		Groups:     groupIDs,
		FixedTask:  cfg.FixedTask,
		SlotLen:    cfg.SlotLen,
		SpanSample: cfg.SpanSample,
	})
	if err != nil {
		return nil, err
	}

	// The live resilient stack. The observer is late-bound through an
	// ObserverRef: the failure detector needs the front-end as its
	// control plane, so it cannot exist before sdn.New runs.
	var obs sdn.ObserverRef
	fe, err := sdn.New(
		sdn.WithPolicy(policy),
		sdn.WithBackendTimeout(cfg.BackendTimeout),
		sdn.WithObserver(obs.Observe),
	)
	if err != nil {
		return nil, err
	}
	injector := NewInjector(root.Sub("fault-params"))
	mgr, err := health.NewManager(health.Config{
		CP:             fe,
		ProbeInterval:  cfg.ProbeInterval,
		ProbeTimeout:   cfg.ProbeTimeout,
		FailThreshold:  cfg.FailThreshold,
		SuccThreshold:  cfg.SuccThreshold,
		PassiveErrors:  cfg.PassiveErrors,
		LatencyLimitMs: cfg.LatencyLimitMs,
	})
	if err != nil {
		return nil, err
	}
	obs.Set(mgr.Observe)
	hv := &timedHealth{m: mgr, forgotten: make(map[string]time.Time)}
	ctrl, err := autoscale.New(autoscale.Config{
		FrontEnd:    fe,
		Provisioner: &ChaosProvisioner{Injector: injector},
		Groups:      cfg.Groups,
		SlotLen:     cfg.SlotLen,
		WarmPool:    cfg.WarmPool,
		RNG:         root.Sub("controller"),
		Health:      hv,
	})
	if err != nil {
		return nil, err
	}
	defer ctrl.Shutdown()
	if err := ctrl.Prime(ctx); err != nil {
		return nil, err
	}
	front := httptest.NewServer(fe.Handler())
	defer front.Close()

	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go mgr.Run(hctx)

	window, err := trace.NewWindow(sim.Epoch, cfg.SlotLen, ctrl.NumGroups(), cfg.Slots+1)
	if err != nil {
		return nil, err
	}
	buckets := make([][]int, cfg.Slots)
	for i, pr := range plan.Timeline {
		idx := int(pr.Offset / cfg.SlotLen)
		if idx >= cfg.Slots {
			idx = cfg.Slots - 1
		}
		buckets[idx] = append(buckets[idx], i)
		window.Observe(sim.Epoch.Add(pr.Offset), pr.User, pr.Group)
	}

	copts := []rpc.ClientOption{rpc.WithTimeout(cfg.RequestTimeout)}
	if cfg.RetryAttempts > 1 {
		copts = append(copts, rpc.WithRetry(rpc.NewRetryPolicy(
			cfg.RetryAttempts, cfg.RetryBase, cfg.RetryMax,
			root.Sub("retry-jitter").Seed())))
	}
	if cfg.HedgeDelay > 0 {
		copts = append(copts, rpc.WithHedge(&rpc.HedgePolicy{Delay: cfg.HedgeDelay}))
	}
	client := rpc.NewClient(front.URL, copts...)

	// faultSlots marks slots with any scheduled fault in force, for the
	// p99-during-fault breakdown.
	faultSlots := make([]bool, cfg.Slots)
	for _, ev := range sched.Events {
		end := ev.Slot + ev.Slots
		if ev.Kind == KindCrash || ev.Kind == KindHang {
			// Down-kind faults are repaired at the next boundary (the
			// convergence barrier guarantees detection within the
			// slot), so only the injection slot is fault-active.
			end = ev.Slot + 1
		}
		for s := ev.Slot; s < end && s < cfg.Slots; s++ {
			faultSlots[s] = true
		}
	}

	type rec struct {
		latencyMs float64
		span      *wire.Span
		err       error
	}
	recs := make([]rec, len(plan.Timeline))
	bySlot := sched.BySlot()
	// downWatch maps crash/hang target URLs to their group until the
	// detector confirms them Down — the convergence barrier that makes
	// repair decisions a function of the schedule, not of probe timing.
	downWatch := map[string]int{}
	slotReports := make([]SlotReport, 0, cfg.Slots)
	overall := stats.NewLatencyHist()
	faultHist := stats.NewLatencyHist()
	totalErrs := 0
	runStart := time.Now()

	for s := 0; s < cfg.Slots; s++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("faults: run interrupted: %w", err)
		}
		injector.ExpireUpTo(s)
		injected := make([]Event, 0, len(bySlot[s]))
		for _, ev := range bySlot[s] {
			url := targetURL(fe, ev)
			if url == "" {
				continue
			}
			if err := injector.Inject(ev, url); err != nil {
				return nil, err
			}
			injected = append(injected, ev)
			if ev.Kind == KindCrash || ev.Kind == KindHang {
				downWatch[url] = ev.Group
			}
		}

		// Replay the slot's requests at their planned offsets.
		idxs := buckets[s]
		sem := make(chan struct{}, cfg.MaxInFlight)
		var wg sync.WaitGroup
		for _, i := range idxs {
			pr := plan.Timeline[i]
			if wait := pr.Offset - time.Since(runStart); wait > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(wait):
				}
			}
			if ctx.Err() != nil {
				break
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				pr := plan.Timeline[i]
				start := time.Now()
				resp, err := client.Offload(ctx, rpc.OffloadRequest{
					UserID:       pr.User,
					Group:        pr.Group,
					BatteryLevel: pr.Battery,
					State:        pr.State,
					SpanID:       pr.Span,
				})
				recs[i] = rec{
					latencyMs: float64(time.Since(start)) / float64(time.Millisecond),
					span:      resp.Span,
					err:       err,
				}
			}(i)
		}
		wg.Wait()

		// Convergence barrier: every injected crash/hang must be
		// probe-confirmed Down before the control cycle runs, so the
		// repair set is deterministic.
		if err := waitDown(ctx, mgr, downWatch); err != nil {
			return nil, err
		}

		slotHist := stats.NewLatencyHist()
		slotErrs := 0
		for _, i := range idxs {
			r := recs[i]
			overall.Add(r.latencyMs)
			slotHist.Add(r.latencyMs)
			if faultSlots[s] {
				faultHist.Add(r.latencyMs)
			}
			if r.err != nil {
				slotErrs++
			}
		}
		totalErrs += slotErrs

		var dec autoscale.Decision
		for _, slot := range window.Advance(sim.Epoch.Add(time.Duration(s+1) * cfg.SlotLen)) {
			dec, err = ctrl.Step(ctx, slot)
			if err != nil {
				return nil, err
			}
		}
		// Repaired URLs are no longer watched.
		for url := range downWatch {
			if _, ok := hv.forgetTime(url); ok {
				delete(downWatch, url)
			}
		}
		faultNames := make([]string, 0, len(injected))
		for _, ev := range injected {
			faultNames = append(faultNames, fmt.Sprintf("%s@g%d", ev.Kind, ev.Group))
		}
		slotReports = append(slotReports, SlotReport{
			Slot:     s,
			Requests: len(idxs),
			Errors:   slotErrs,
			Faults:   faultNames,
			Latency:  loadgen.Summarize(slotHist),
			Decision: dec,
		})
	}
	wall := time.Since(runStart)

	// Fold returned per-hop breakdowns into the spans section. Planned
	// count and digest come from the schedule (seed-exact); collected
	// spans are whatever survived faults, retries, and timeouts.
	var spans *loadgen.SpanSection
	if cfg.SpanSample > 0 {
		planned, digest := plan.SpanPlan()
		spans = &loadgen.SpanSection{SampleEvery: cfg.SpanSample, Planned: planned, Digest: digest}
		hists := map[string]*stats.LogHist{}
		for _, name := range []string{"queue", "linger", "cold", "network", "exec"} {
			hists[name] = stats.NewLatencyHist()
		}
		for _, r := range recs {
			if r.span == nil {
				continue
			}
			spans.Collected++
			hists["queue"].Add(r.span.QueueMs)
			hists["linger"].Add(r.span.LingerMs)
			hists["cold"].Add(r.span.ColdMs)
			hists["network"].Add(r.span.NetworkMs)
			hists["exec"].Add(r.span.ExecMs)
		}
		if spans.Collected > 0 {
			spans.Hops = make(map[string]loadgen.LatencySummary, len(hists))
			for name, h := range hists {
				spans.Hops[name] = loadgen.Summarize(h)
			}
		}
	}

	return buildReport(cfg, plan, sched, injector, mgr, hv, ctrl, client,
		reportInputs{
			overall:     overall,
			faultHist:   faultHist,
			totalErrs:   totalErrs,
			totalReqs:   len(plan.Timeline),
			wall:        wall,
			slotReports: slotReports,
			spans:       spans,
		})
}

// waitDown blocks until every watched URL is probe-confirmed Down (or
// the deadline passes — a detector that cannot confirm a scheduled
// crash within 10s is a bug worth failing the run over).
func waitDown(ctx context.Context, mgr *health.Manager, watch map[string]int) error {
	deadline := time.Now().Add(10 * time.Second)
	for url, group := range watch {
		for {
			confirmed := false
			for _, u := range mgr.Down(group) {
				if u == url {
					confirmed = true
					break
				}
			}
			if confirmed {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("faults: detector never confirmed %s down", url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}
