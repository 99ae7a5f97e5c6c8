// Package health is the failure detector of the serving stack: an
// active prober (per-backend heartbeats with phi-accrual-style
// suspicion) combined with a passive outlier detector (consecutive
// data-path errors, latency-quantile ejection) feeding the router's
// Eject/Reinstate control levers — the layer that turns a surrogate
// crash from a blackhole into a sub-second traffic shift.
//
// Classification matters for the repair loop downstream:
//
//   - Down: the heartbeat itself fails (crash, hang, listener gone).
//     The backend is ejected AND reported to the autoscale reconciler,
//     which replaces it from the warm pool (a repair Decision).
//   - Degraded: heartbeats still answer but the data path is sick
//     (error bursts, latency spikes). The backend is ejected and given
//     a cooldown, then trially reinstated — capacity is parked, not
//     destroyed, so no repair is provisioned for it.
//
// Ejection respects a min-active floor: the detector never empties a
// pool, because one sick backend still beats none (kserve's outlier
// ejection makes the same call). The detector is side-effect-idempotent
// against the router's RCU snapshots: Eject/Reinstate are no-ops when
// the state already matches, so detector flaps cannot corrupt
// control-plane state.
//
// Concurrency: Observe is called from every request goroutine after
// every backend hop, so its state is sharded per backend — one small
// mutex per watched backend, never a detector-global lock — keeping
// the passive feed from re-serializing the lock-free data plane it
// watches. Only the cold ejection/reinstatement decision takes a
// global mutex (so two concurrent ejections cannot race past the
// min-active floor).
package health

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/stats"
)

// Status classifies one backend's observed health.
type Status string

const (
	// StatusHealthy backends pass probes and serve without incident.
	StatusHealthy Status = "healthy"
	// StatusSuspect backends have failed probes, below the ejection
	// threshold.
	StatusSuspect Status = "suspect"
	// StatusDown backends fail heartbeats outright — crash or hang —
	// and are repair candidates.
	StatusDown Status = "down"
	// StatusDegraded backends answer heartbeats but fail or straggle on
	// the data path; they are parked under a cooldown, not repaired.
	StatusDegraded Status = "degraded"
)

// Config parameterizes a Manager.
type Config struct {
	// CP is the control plane whose backends are watched (a
	// *router.Router or an *sdn.FrontEnd). Required.
	CP router.Control
	// ProbeInterval is the heartbeat period (0 selects 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one heartbeat (0 selects ProbeInterval; a
	// hung backend must fail the probe, not stall the prober).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures that mark a
	// backend Down (0 selects 2 — ejection strictly before the 3rd
	// failed probe).
	FailThreshold int
	// SuccThreshold is the consecutive probe successes required to
	// reinstate (0 selects 2).
	SuccThreshold int
	// PassiveErrors is the consecutive data-path errors that eject a
	// backend as Degraded (0 selects 5; negative disables).
	PassiveErrors int
	// LatencyLimitMs ejects a backend whose windowed latency quantile
	// exceeds it (0 disables).
	LatencyLimitMs float64
	// LatencyQuantile is the watched quantile (0 selects 0.9).
	LatencyQuantile float64
	// LatencyWindow is the per-backend rolling sample window
	// (0 selects 64).
	LatencyWindow int
	// EjectionCooldown is how long a Degraded backend stays parked
	// before a trial reinstatement (0 selects 8×ProbeInterval).
	EjectionCooldown time.Duration
	// MinActive is the per-group floor below which the detector refuses
	// to eject (0 selects 1): a pool is never emptied by suspicion.
	MinActive int
	// Probe overrides the heartbeat implementation (tests); nil probes
	// rpc's /healthz.
	Probe func(ctx context.Context, url string) error
}

func (c Config) withDefaults() (Config, error) {
	if c.CP == nil {
		return c, errors.New("health: nil control plane")
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeInterval < 0 {
		return c, fmt.Errorf("health: probe interval %v < 0", c.ProbeInterval)
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.ProbeTimeout < 0 {
		return c, fmt.Errorf("health: probe timeout %v < 0", c.ProbeTimeout)
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 2
	}
	if c.FailThreshold < 0 {
		return c, fmt.Errorf("health: fail threshold %d < 0", c.FailThreshold)
	}
	if c.SuccThreshold == 0 {
		c.SuccThreshold = 2
	}
	if c.SuccThreshold < 0 {
		return c, fmt.Errorf("health: success threshold %d < 0", c.SuccThreshold)
	}
	if c.PassiveErrors == 0 {
		c.PassiveErrors = 5
	}
	if c.LatencyQuantile == 0 {
		c.LatencyQuantile = 0.9
	}
	if c.LatencyQuantile < 0 || c.LatencyQuantile >= 1 {
		return c, fmt.Errorf("health: latency quantile %v outside (0,1)", c.LatencyQuantile)
	}
	if c.LatencyWindow == 0 {
		c.LatencyWindow = 64
	}
	if c.LatencyWindow < 0 {
		return c, fmt.Errorf("health: latency window %d < 0", c.LatencyWindow)
	}
	if c.EjectionCooldown == 0 {
		c.EjectionCooldown = 8 * c.ProbeInterval
	}
	if c.EjectionCooldown < 0 {
		return c, fmt.Errorf("health: ejection cooldown %v < 0", c.EjectionCooldown)
	}
	if c.MinActive == 0 {
		c.MinActive = 1
	}
	if c.MinActive < 0 {
		return c, fmt.Errorf("health: min active %d < 0", c.MinActive)
	}
	return c, nil
}

// key identifies one watched backend.
type key struct {
	group int
	url   string
}

// backendState is the detector's bookkeeping for one backend. Each
// state carries its own mutex — the per-backend shard of the passive
// hot path.
type backendState struct {
	mu sync.Mutex

	status  Status
	ejected bool // we hold an ejection on the control plane

	consecProbeFails int
	consecProbeSuccs int
	consecErrors     int

	lastSuccess time.Time // last successful probe
	firstFail   time.Time // start of the current probe-failure streak
	downAt      time.Time
	ejectedAt   time.Time
	// probesToEject is the probe-failure streak length when the backend
	// was ejected (0 when passive detection fired first).
	probesToEject int

	// lats is the rolling data-path latency window (ms).
	lats []float64
	next int
	have int
	seen int
}

// BackendHealth is one backend's externally visible health snapshot.
type BackendHealth struct {
	Group  int    `json:"group"`
	URL    string `json:"url"`
	Status Status `json:"status"`
	// Phi is the phi-accrual-style suspicion level: elapsed time since
	// the last successful heartbeat over the probe interval. Healthy
	// backends hover near 1; a crashed one grows without bound.
	Phi              float64 `json:"phi"`
	ConsecProbeFails int     `json:"consecProbeFails"`
	ConsecErrors     int     `json:"consecErrors"`
	Ejected          bool    `json:"ejected"`
}

// Ejection is one audit-log entry: a backend leaving rotation.
type Ejection struct {
	Group int
	URL   string
	At    time.Time
	// Cause is "probe" (Down) or "errors"/"latency" (Degraded).
	Cause string
	// ProbeFails is the failed-probe streak at ejection (0 for passive
	// causes).
	ProbeFails int
}

// Manager is the failure detector. Start Run in a goroutine; Observe
// may be called concurrently from request goroutines.
type Manager struct {
	cfg Config

	states  sync.Map // key -> *backendState
	clients sync.Map // url -> *rpc.Client

	// ejectMu serializes ejection and reinstatement decisions only
	// (cold path), so two concurrent passive ejections cannot both
	// pass the min-active floor check and empty a pool together.
	ejectMu sync.Mutex

	// logMu guards the audit log and the repair counter.
	logMu   sync.Mutex
	log     []Ejection
	repairs int64
}

// NewManager validates the configuration and builds an idle detector.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Run probes on the configured interval until the context ends.
func (m *Manager) Run(ctx context.Context) {
	ticker := time.NewTicker(m.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.ProbeOnce(ctx)
		}
	}
}

// probe runs one heartbeat.
func (m *Manager) probe(ctx context.Context, url string) error {
	if m.cfg.Probe != nil {
		pctx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
		defer cancel()
		return m.cfg.Probe(pctx, url)
	}
	v, ok := m.clients.Load(url)
	if !ok {
		c := rpc.NewClient(url, rpc.WithTimeout(m.cfg.ProbeTimeout))
		v, _ = m.clients.LoadOrStore(url, c)
	}
	return v.(*rpc.Client).Health(ctx)
}

// getState returns the backend's state shard, creating it on first
// sight.
func (m *Manager) getState(k key) *backendState {
	if v, ok := m.states.Load(k); ok {
		return v.(*backendState)
	}
	st := &backendState{
		status:      StatusHealthy,
		lastSuccess: time.Now(),
		lats:        make([]float64, m.cfg.LatencyWindow),
	}
	v, _ := m.states.LoadOrStore(k, st)
	return v.(*backendState)
}

// ProbeOnce runs one full heartbeat round: sync the watched set with
// the control plane's registry, probe every backend concurrently, fold
// the results into the state machine, and apply ejections and
// reinstatements. Exported so tests and slot-driven harnesses can step
// the detector deterministically.
func (m *Manager) ProbeOnce(ctx context.Context) {
	targets := m.syncTargets()
	errs := make([]error, len(targets))
	sim.FanOut(len(targets), 16, func(i int) {
		errs[i] = m.probe(ctx, targets[i].url)
	})
	now := time.Now()
	for i, k := range targets {
		v, ok := m.states.Load(k)
		if !ok {
			continue // deregistered mid-round
		}
		st := v.(*backendState)
		st.mu.Lock()
		if errs[i] == nil {
			m.probeSuccess(k, st, now)
		} else {
			m.probeFailure(k, st, now)
		}
		st.mu.Unlock()
	}
}

// syncTargets reconciles the watched set with the control plane's pools
// and returns the probe targets in deterministic (group, registration)
// order. State for deregistered backends is dropped.
func (m *Manager) syncTargets() []key {
	groups := make([]int, 0, 8)
	for g := range m.cfg.CP.Backends() {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	live := make(map[key]bool)
	liveURLs := make(map[string]bool)
	var targets []key
	for _, g := range groups {
		for _, info := range m.cfg.CP.Pool(g) {
			k := key{group: g, url: info.URL}
			live[k] = true
			liveURLs[info.URL] = true
			m.getState(k)
			targets = append(targets, k)
		}
	}
	m.states.Range(func(k, _ any) bool {
		if !live[k.(key)] {
			m.states.Delete(k)
		}
		return true
	})
	// Prune probe clients alongside the states: under autoscale churn
	// every repair and scale-up brings a fresh URL, and a long-running
	// detector must not accumulate one cached client per URL ever seen.
	m.clients.Range(func(url, _ any) bool {
		if !liveURLs[url.(string)] {
			m.clients.Delete(url)
		}
		return true
	})
	return targets
}

// probeSuccess folds one heartbeat success. Caller holds st.mu.
func (m *Manager) probeSuccess(k key, st *backendState, now time.Time) {
	st.lastSuccess = now
	st.consecProbeFails = 0
	st.firstFail = time.Time{}
	st.consecProbeSuccs++
	switch st.status {
	case StatusSuspect:
		st.status = StatusHealthy
	case StatusDown:
		// The backend answers again (a hang that cleared, a restart on
		// the same address). Reinstate once the success streak proves
		// it. A repair racing this recovery (it read Down before the
		// streak completed) would evict the just-reinstated backend and
		// replace it from the warm pool — capacity is briefly doubled,
		// never lost.
		if st.consecProbeSuccs >= m.cfg.SuccThreshold {
			m.reinstate(k, st)
		}
	case StatusDegraded:
		if st.consecProbeSuccs >= m.cfg.SuccThreshold && now.Sub(st.ejectedAt) >= m.cfg.EjectionCooldown {
			// Trial reinstatement: the passive detector re-ejects if the
			// data path is still sick.
			m.reinstate(k, st)
		}
	}
}

// probeFailure folds one heartbeat failure. Caller holds st.mu.
func (m *Manager) probeFailure(k key, st *backendState, now time.Time) {
	st.consecProbeSuccs = 0
	st.consecProbeFails++
	if st.firstFail.IsZero() {
		st.firstFail = now
	}
	if st.consecProbeFails < m.cfg.FailThreshold {
		if st.status == StatusHealthy {
			st.status = StatusSuspect
		}
		return
	}
	if st.status != StatusDown {
		st.status = StatusDown
		st.downAt = now
	}
	m.eject(k, st, now, "probe", st.consecProbeFails)
}

// eject fences a backend off unless the group would fall below the
// min-active floor. Caller holds st.mu; the global ejectMu serializes
// the floor check against concurrent ejections in the same group.
func (m *Manager) eject(k key, st *backendState, now time.Time, cause string, probeFails int) {
	if st.ejected {
		return
	}
	m.ejectMu.Lock()
	defer m.ejectMu.Unlock()
	if m.cfg.CP.ActiveCount(k.group) <= m.cfg.MinActive {
		// Refusing to empty the pool; the Down/Degraded status stands,
		// and a later round retries once capacity recovers.
		return
	}
	if err := m.cfg.CP.Eject(k.group, k.url); err != nil {
		return // deregistered concurrently; syncTargets will drop it
	}
	// Eject is a no-op on a draining backend (a drain decision outranks
	// a health suspicion): verify the fence actually landed before
	// recording it, or a phantom ejection would block every future
	// ejection of this backend.
	fenced := false
	for _, info := range m.cfg.CP.Pool(k.group) {
		if info.URL == k.url && info.State == router.StateEjected {
			fenced = true
			break
		}
	}
	if !fenced {
		return
	}
	st.ejected = true
	st.ejectedAt = now
	st.probesToEject = probeFails
	m.logMu.Lock()
	m.log = append(m.log, Ejection{
		Group: k.group, URL: k.url, At: now, Cause: cause, ProbeFails: probeFails,
	})
	m.logMu.Unlock()
}

// reinstate returns a backend to rotation and resets the passive
// signals so stale history cannot immediately re-eject it. Caller
// holds st.mu.
func (m *Manager) reinstate(k key, st *backendState) {
	if st.ejected {
		m.ejectMu.Lock()
		err := m.cfg.CP.Reinstate(k.group, k.url)
		m.ejectMu.Unlock()
		if err != nil {
			return
		}
	}
	st.ejected = false
	st.status = StatusHealthy
	st.consecErrors = 0
	st.have, st.next, st.seen = 0, 0, 0
	st.probesToEject = 0
}

// Observe is the passive hook the front-end calls per proxied request:
// err is the backend hop's outcome, latencyMs its round trip. It runs
// on the request hot path, so it touches only the backend's own state
// shard — one per-backend mutex, no detector-global lock, no
// allocation on the common path.
func (m *Manager) Observe(group int, url string, err error, latencyMs float64) {
	if errors.Is(err, context.Canceled) {
		// The client walked away (disconnect, or a hedge's losing lane
		// being canceled) — that says nothing about the backend, and
		// counting it would let sustained hedging eject healthy
		// capacity.
		return
	}
	k := key{group: group, url: url}
	st := m.getState(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.consecErrors++
		if m.cfg.PassiveErrors > 0 && st.consecErrors >= m.cfg.PassiveErrors &&
			st.status != StatusDown && !st.ejected {
			st.status = StatusDegraded
			m.eject(k, st, time.Now(), "errors", 0)
		}
		return
	}
	st.consecErrors = 0
	if m.cfg.LatencyLimitMs <= 0 || len(st.lats) == 0 {
		return
	}
	st.lats[st.next] = latencyMs
	st.next = (st.next + 1) % len(st.lats)
	if st.have < len(st.lats) {
		st.have++
	}
	st.seen++
	// Quantile checks are amortized: every 16th sample, once half the
	// window is warm — sorting the window per request would put a
	// O(n log n) tax on the hot path.
	if st.seen%16 != 0 || st.have < len(st.lats)/2 {
		return
	}
	q, qerr := stats.Percentile(st.lats[:st.have], m.cfg.LatencyQuantile*100)
	if qerr == nil && q > m.cfg.LatencyLimitMs && st.status == StatusHealthy && !st.ejected {
		st.status = StatusDegraded
		m.eject(k, st, time.Now(), "latency", 0)
	}
}

// Down reports the group's probe-confirmed dead backends in sorted
// order — the deterministic input of the reconciler's repair path.
func (m *Manager) Down(group int) []string {
	var out []string
	m.states.Range(func(kv, v any) bool {
		k := kv.(key)
		if k.group != group {
			return true
		}
		st := v.(*backendState)
		st.mu.Lock()
		down := st.status == StatusDown
		st.mu.Unlock()
		if down {
			out = append(out, k.url)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Forget drops a backend's state — the repair loop calls it after
// evicting and replacing a dead backend, so the fresh replacement
// starts with a clean history.
func (m *Manager) Forget(group int, url string) {
	m.states.Delete(key{group: group, url: url})
	m.logMu.Lock()
	m.repairs++
	m.logMu.Unlock()
}

// Repairs reports how many backends the repair loop has consumed via
// Forget.
func (m *Manager) Repairs() int64 {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	return m.repairs
}

// View snapshots every watched backend, ordered by (group, url).
func (m *Manager) View() []BackendHealth {
	now := time.Now()
	var out []BackendHealth
	m.states.Range(func(kv, v any) bool {
		k := kv.(key)
		st := v.(*backendState)
		st.mu.Lock()
		phi := 0.0
		if !st.lastSuccess.IsZero() {
			phi = float64(now.Sub(st.lastSuccess)) / float64(m.cfg.ProbeInterval)
		}
		out = append(out, BackendHealth{
			Group:            k.group,
			URL:              k.url,
			Status:           st.status,
			Phi:              phi,
			ConsecProbeFails: st.consecProbeFails,
			ConsecErrors:     st.consecErrors,
			Ejected:          st.ejected,
		})
		st.mu.Unlock()
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// Ejections snapshots the ejection audit log.
func (m *Manager) Ejections() []Ejection {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	out := make([]Ejection, len(m.log))
	copy(out, m.log)
	return out
}
