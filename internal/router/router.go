// Package router is the lock-free sharded data plane of the SDN
// accelerator: per-group surrogate pools published as immutable
// copy-on-write snapshots behind an atomic pointer (RCU-style), with
// per-backend atomic in-flight counters and pluggable pick policies
// (round-robin, least-inflight, power-of-two-choices).
//
// The request hot path — Pick, Release, the drop counters, and Stats —
// acquires no mutexes. Control-plane mutations (Register, Drain,
// Remove, driven by the autoscaling reconciler; Eject, Reinstate,
// Evict, driven by the failure detector and its repair path) build a
// new snapshot under a small control mutex and publish it with one
// atomic store, so readers never block writers and writers never block
// readers.
//
// Correctness of the publish protocol: Pick reserves an in-flight slot
// and then re-validates that the snapshot it picked from is still
// current; if a mutation was published in between, the reservation is
// rolled back and the pick retried against the new snapshot. Remove
// publishes first and re-checks the in-flight counter afterwards,
// rolling the snapshot back when a concurrent reservation slipped in.
// Together these guarantee that once Drain or Remove returns, no
// subsequent Pick ever resolves to that backend — the invariant the
// connection-draining scale-down of the autoscaling control loop
// (DESIGN.md §5) depends on.
package router

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/serve"
)

// State is the lifecycle state of one registered backend.
type State string

const (
	// StateActive backends receive new requests.
	StateActive State = "active"
	// StateDraining backends finish their in-flight requests but are
	// never picked for new ones.
	StateDraining State = "draining"
	// StateEjected backends are fenced off by the failure detector
	// (internal/health): suspected dead or degraded, never picked, but
	// still registered so a recovery can Reinstate them in place
	// without losing the warm backend.
	StateEjected State = "ejected"
	// StateCold backends were scaled to zero after sitting idle
	// (MarkIdleCold): still registered, never picked, but eligible for
	// in-place activation — the first Pick of a group whose active set
	// is empty promotes a cold backend and flags the request as the
	// cold start (DESIGN.md §9).
	StateCold State = "cold"
)

// ErrBackendBusy is returned by Remove while a backend still has
// in-flight requests; drain first and retry once Inflight reports 0.
var ErrBackendBusy = errors.New("router: backend has in-flight requests")

// ErrUnknownBackend is returned when a (group, url) pair is not
// registered.
var ErrUnknownBackend = errors.New("router: unknown backend")

// ErrNoActiveBackend is returned by Pick when a group has no backend
// accepting new work.
var ErrNoActiveBackend = errors.New("router: no active backend")

// ErrGroupSaturated is returned by Pick when every active backend's
// admission queue is full. It wraps serve.ErrQueueFull, so
// errors.Is(err, serve.ErrQueueFull) classifies it and the front-end's
// 503 body carries the rpc.MsgQueueFull marker for client-side
// queue-aware retry.
var ErrGroupSaturated = fmt.Errorf("router: every active backend saturated: %w", serve.ErrQueueFull)

// BackendInfo is a point-in-time view of one backend, exposed by Pool
// and the front-end's /stats endpoint.
type BackendInfo struct {
	URL     string `json:"url"`
	State   State  `json:"state"`
	Version string `json:"version,omitempty"`
	// Inflight counts picked-and-unreleased requests (queued ones
	// included); Queued is the admitted-but-undispatched subset and
	// ConcurrencyLimit its dispatch bound (0 = no admission queue).
	Inflight         int  `json:"inflight"`
	Queued           int  `json:"queued"`
	ConcurrencyLimit int  `json:"concurrency_limit"`
	Cold             bool `json:"cold"`
}

// entry is one registered backend. Everything but the counters is
// immutable; the counters (and the admission queue) are shared by
// every snapshot that references the entry, so reservations survive
// republishes.
type entry struct {
	url     string
	version string
	client  *rpc.Client
	// q is the backend's admission queue; nil when the router was not
	// configured with a serve.Config.
	q        *serve.Queue
	inflight atomic.Int64
	// lastUsed is the unix-nano stamp of the entry's registration or
	// most recent Release — the idleness clock MarkIdleCold reads.
	lastUsed atomic.Int64
}

// saturated reports whether the entry's admission queue is full.
func (e *entry) saturated() bool { return e.q != nil && e.q.Saturated() }

// slot pairs an entry with its lifecycle state in one snapshot. The
// state lives in the snapshot (not the entry) so publishing a drain is
// one pointer store, never an in-place mutation readers could observe
// half-done.
type slot struct {
	e     *entry
	state State
}

// pool is one group's immutable backend set within a snapshot.
type pool struct {
	// slots holds every backend in registration order.
	slots []slot
	// active holds the pickable subset, pre-filtered at publish time so
	// the hot path never scans states.
	active []*entry
	// rr is the group's pick cursor. It is carried from snapshot to
	// snapshot so round-robin keeps rotating across republishes.
	rr *atomic.Uint64
}

// MaxGroup bounds acceleration-group indices. The routing table is a
// dense slice indexed by group — one bounds check and one load on the
// hot path instead of a map hash — so indices must stay small; the
// paper's accelerator has a handful of acceleration levels.
const MaxGroup = 4096

// snapshot is one immutable routing table: groups[g] is group g's pool
// (nil when unregistered). Never written after publish, so lock-free
// readers index it freely.
type snapshot struct {
	groups []*pool
}

// pool returns group g's pool, nil when absent.
func (s *snapshot) pool(g int) *pool {
	if g < 0 || g >= len(s.groups) {
		return nil
	}
	return s.groups[g]
}

// Router routes requests to per-group backend pools.
type Router struct {
	policy Policy
	snap   atomic.Pointer[snapshot]

	routed  atomic.Int64
	dropped atomic.Int64

	// mu serializes control-plane mutations only; the request path
	// never takes it. clientTimeout and serveCfg (guarded by mu) are
	// applied to the rpc clients and admission queues of subsequently
	// registered backends; activations counts cold-start promotions
	// per group until TakeActivations drains it.
	mu            sync.Mutex
	clientTimeout time.Duration
	serveCfg      serve.Config
	activations   map[int]int64
}

// Control is the routing control plane: the backend lifecycle levers
// the autoscale reconciler (Register, Drain, Remove, Evict), the
// failure detector (Eject, Reinstate) and the daemons drive, plus the
// read-only pool views they decide from. The data plane (Pick, Release,
// CountDrop) and the construction setters are deliberately not part of
// it. *Router implements it; sdn.FrontEnd exposes it by embedding.
type Control interface {
	Register(group int, baseURL string) error
	RegisterVersion(group int, baseURL, version string) error
	Drain(group int, baseURL string) error
	Remove(group int, baseURL string) error
	Inflight(group int, baseURL string) (int, error)
	Eject(group int, baseURL string) error
	Reinstate(group int, baseURL string) error
	Evict(group int, baseURL string) error
	TakeActivations() map[int]int64
	Backends() map[int]int
	Pool(group int) []BackendInfo
	ActiveCount(group int) int
}

var _ Control = (*Router)(nil)

// New builds an empty router. A nil policy selects round-robin.
func New(policy Policy) *Router {
	if policy == nil {
		policy = RoundRobin{}
	}
	r := &Router{policy: policy}
	r.snap.Store(&snapshot{})
	return r
}

// Policy reports the configured pick policy.
func (r *Router) Policy() Policy { return r.policy }

// SetClientTimeout sets the per-request deadline of the rpc clients
// built for backends registered after the call (0 keeps the rpc
// default). Configure it before registering backends: the proxy hop to
// a crashed or hung surrogate must fail within the failure detector's
// horizon, not the 30 s transport default.
func (r *Router) SetClientTimeout(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clientTimeout = d
}

// SetServeConfig installs the admission-queue shape (concurrency
// limit, queue depth, batching knobs) applied to backends registered
// after the call. Like SetClientTimeout, configure it before
// registering backends. A zero config (Limit 0) disables the queue
// layer — the pre-serving behaviour.
func (r *Router) SetServeConfig(cfg serve.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serveCfg = cfg
	return nil
}

// ServeConfig reports the configured admission-queue shape.
func (r *Router) ServeConfig() serve.Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serveCfg
}

// findSlot locates a backend inside a snapshot.
func (s *snapshot) findSlot(group int, url string) (p *pool, idx int) {
	p = s.pool(group)
	if p == nil {
		return nil, -1
	}
	for i := range p.slots {
		if p.slots[i].e.url == url {
			return p, i
		}
	}
	return p, -1
}

// rebuild returns a copy of the snapshot with one group's slots
// replaced. A nil or empty slots slice deletes the group. The caller
// holds r.mu. rr is reused from the previous pool when present so the
// round-robin cursor survives republishes.
func (s *snapshot) rebuild(group int, slots []slot) *snapshot {
	width := len(s.groups)
	if len(slots) > 0 && group+1 > width {
		width = group + 1
	}
	next := &snapshot{groups: make([]*pool, width)}
	copy(next.groups, s.groups)
	if len(slots) == 0 {
		if group < len(next.groups) {
			next.groups[group] = nil
		}
		// Trim trailing holes so the table never outlives its widest
		// registered group.
		for len(next.groups) > 0 && next.groups[len(next.groups)-1] == nil {
			next.groups = next.groups[:len(next.groups)-1]
		}
		return next
	}
	p := &pool{slots: slots}
	if prev := s.pool(group); prev != nil {
		p.rr = prev.rr
	} else {
		p.rr = &atomic.Uint64{}
	}
	for _, sl := range slots {
		if sl.state == StateActive {
			p.active = append(p.active, sl.e)
		}
	}
	next.groups[group] = p
	return next
}

// Register adds a surrogate base URL under an acceleration group. A URL
// currently draining (or cold) in the same group is re-activated in
// place (the un-drain path: a scale-up arriving before the drain
// completed), so flapping never loses a warm backend.
func (r *Router) Register(group int, baseURL string) error {
	return r.RegisterVersion(group, baseURL, "")
}

// RegisterVersion registers a backend carrying a version label — the
// selector the canary pick policy splits traffic on ("" is the stable
// fleet). Everything else matches Register.
func (r *Router) RegisterVersion(group int, baseURL, version string) error {
	if group < 0 {
		return fmt.Errorf("router: negative group %d", group)
	}
	if group > MaxGroup {
		return fmt.Errorf("router: group %d exceeds MaxGroup %d", group, MaxGroup)
	}
	if baseURL == "" {
		return errors.New("router: empty backend url")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	var slots []slot
	switch {
	case idx >= 0 && (p.slots[idx].state == StateDraining || p.slots[idx].state == StateCold):
		slots = append([]slot(nil), p.slots...)
		slots[idx].state = StateActive
	case idx >= 0:
		return fmt.Errorf("router: backend %s already registered in group %d", baseURL, group)
	default:
		if p != nil {
			slots = append(slots, p.slots...)
		}
		client := rpc.NewClient(baseURL, rpc.WithTimeout(r.clientTimeout))
		q, err := serve.New(r.serveCfg, client)
		if err != nil {
			return err
		}
		e := &entry{url: baseURL, version: version, client: client, q: q}
		e.lastUsed.Store(time.Now().UnixNano())
		slots = append(slots, slot{e: e, state: StateActive})
	}
	r.snap.Store(s.rebuild(group, slots))
	return nil
}

// Drain fences a backend off from new requests; in-flight requests
// complete normally. Draining an already-draining backend is a no-op.
// Once Drain returns, no subsequent Pick resolves to the backend.
func (r *Router) Drain(group int, baseURL string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	if p.slots[idx].state == StateDraining {
		return nil
	}
	slots := append([]slot(nil), p.slots...)
	slots[idx].state = StateDraining
	r.snap.Store(s.rebuild(group, slots))
	return nil
}

// Remove deregisters an idle backend. It fails with ErrBackendBusy
// while requests are still in flight — drain first, then retry; the
// router never abandons accepted work. The busy check is re-run after
// the snapshot without the backend is published, and rolled back if a
// concurrent Pick reserved a slot in the window — so a successful
// Remove guarantees no request is, or ever will be, routed to the
// backend.
func (r *Router) Remove(group int, baseURL string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	e := p.slots[idx].e
	if n := e.inflight.Load(); n > 0 {
		return fmt.Errorf("%w: %s in group %d (%d in flight)", ErrBackendBusy, baseURL, group, n)
	}
	slots := append([]slot(nil), p.slots[:idx]...)
	slots = append(slots, p.slots[idx+1:]...)
	r.snap.Store(s.rebuild(group, slots))
	if n := e.inflight.Load(); n > 0 {
		// A Pick reserved on the old snapshot between the check and the
		// publish. Roll the old table back; the reservation stands and
		// the backend stays registered.
		r.snap.Store(s)
		return fmt.Errorf("%w: %s in group %d (%d in flight)", ErrBackendBusy, baseURL, group, n)
	}
	// Asynchronous: Close waits out in-flight dispatches, and the
	// control plane must not block behind a slow backend call.
	go e.q.Close()
	return nil
}

// Eject fences a suspected-unhealthy backend off from new requests,
// exactly like Drain but reversible in place via Reinstate — the
// failure detector's lever on the RCU snapshot path. Ejecting an
// already-ejected or draining backend is a no-op (draining is already
// fenced, and a drain decision outranks a health suspicion). Once
// Eject returns, no subsequent Pick resolves to the backend — the same
// publish-then-revalidate protocol Drain relies on.
func (r *Router) Eject(group int, baseURL string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	if p.slots[idx].state != StateActive {
		return nil
	}
	slots := append([]slot(nil), p.slots...)
	slots[idx].state = StateEjected
	r.snap.Store(s.rebuild(group, slots))
	return nil
}

// Reinstate returns an ejected backend to rotation — the failure
// detector's recovery path. Reinstating a backend in any other state is
// a no-op: an active backend needs no help, and a draining one was
// deliberately fenced by the control plane.
func (r *Router) Reinstate(group int, baseURL string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	if p.slots[idx].state != StateEjected {
		return nil
	}
	slots := append([]slot(nil), p.slots...)
	slots[idx].state = StateActive
	r.snap.Store(s.rebuild(group, slots))
	return nil
}

// Evict unconditionally deregisters a backend, in-flight requests or
// not — the repair path for a confirmed-dead backend, whose accepted
// work is already lost. Outstanding reservations stay safe: each Picked
// holds its entry directly, so Release still balances the counters; the
// entry is garbage-collected once the last reservation drops. Once
// Evict returns, no subsequent Pick resolves to the backend.
func (r *Router) Evict(group int, baseURL string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	e := p.slots[idx].e
	slots := append([]slot(nil), p.slots[:idx]...)
	slots = append(slots, p.slots[idx+1:]...)
	r.snap.Store(s.rebuild(group, slots))
	// Asynchronous: the queue's still-queued jobs fail with ErrClosed —
	// a confirmed-dead backend's accepted work is already lost — and
	// the control plane must not block waiting for them.
	go e.q.Close()
	return nil
}

// Picked is a reserved routing decision: the chosen backend with one
// in-flight slot held. Pass it to Release exactly once.
type Picked struct {
	e    *entry
	cold bool
}

// URL reports the picked backend's base URL.
func (p Picked) URL() string { return p.e.url }

// Client reports the picked backend's RPC client.
func (p Picked) Client() *rpc.Client { return p.e.client }

// Version reports the picked backend's version label ("" = stable).
func (p Picked) Version() string { return p.e.version }

// Queue reports the picked backend's admission queue; nil when the
// router has no serve.Config, in which case the caller dispatches
// through Client directly.
func (p Picked) Queue() *serve.Queue { return p.e.q }

// ColdStarted reports whether this pick promoted a cold backend — the
// triggering request pays the configured cold-start latency.
func (p Picked) ColdStarted() bool { return p.cold }

// Pick selects a backend for the group under the configured policy and
// reserves an in-flight slot on it. Lock-free: one snapshot load, the
// policy's choice, and an atomic reservation, re-validated against the
// group's current pool so a Pick never resolves to a backend drained
// or removed before the call. Validation is per-pool, not whole-table:
// every mutation of a group allocates a fresh pool object while
// untouched groups keep theirs, so control-plane churn in one group
// never rolls back concurrent picks in another.
func (r *Router) Pick(group int) (Picked, error) {
	for {
		p := r.snap.Load().pool(group)
		if p == nil {
			return Picked{}, fmt.Errorf("%w for group %d", ErrNoActiveBackend, group)
		}
		if len(p.active) == 0 {
			// Scale-to-zero path: an empty active set with a cold
			// backend means the group is parked, not gone — promote one
			// and charge this request with the cold start.
			e, changed := r.activateCold(group, p)
			if e != nil {
				e.inflight.Add(1)
				return Picked{e: e, cold: true}, nil
			}
			if changed {
				continue
			}
			return Picked{}, fmt.Errorf("%w for group %d", ErrNoActiveBackend, group)
		}
		e := r.policy.pick(p)
		if e.saturated() {
			// The policy's choice is backpressuring; steer around it.
			// Saturated() is a racy gauge read — serve.Queue.Submit is
			// the hard gate — but under sustained overload the signal
			// is stable, which is when steering matters.
			if e = firstUnsaturated(p); e == nil {
				return Picked{}, fmt.Errorf("group %d: %w", group, ErrGroupSaturated)
			}
		}
		e.inflight.Add(1)
		if r.snap.Load().pool(group) == p {
			return Picked{e: e}, nil
		}
		// This group was republished between the pick and the
		// reservation; the entry may just have been drained or removed.
		// Roll back and retry against the new pool.
		e.inflight.Add(-1)
	}
}

// firstUnsaturated scans the active set from a rotating start for a
// backend whose admission queue has room.
func firstUnsaturated(p *pool) *entry {
	n := uint64(len(p.active))
	start := p.rr.Add(1) - 1
	for i := uint64(0); i < n; i++ {
		if e := p.active[(start+i)%n]; !e.saturated() {
			return e
		}
	}
	return nil
}

// activateCold promotes one cold backend of the group to active under
// the control mutex, counting the activation. seen is the pool the
// caller observed empty; if the group changed in the meantime the
// caller retries instead of activating (changed=true, nil entry).
func (r *Router) activateCold(group int, seen *pool) (e *entry, changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	p := s.pool(group)
	if p == nil {
		return nil, p != seen
	}
	if p != seen && len(p.active) > 0 {
		return nil, true
	}
	for i := range p.slots {
		if p.slots[i].state != StateCold {
			continue
		}
		slots := append([]slot(nil), p.slots...)
		slots[i].state = StateActive
		r.snap.Store(s.rebuild(group, slots))
		if r.activations == nil {
			r.activations = make(map[int]int64)
		}
		r.activations[group]++
		return p.slots[i].e, true
	}
	return nil, p != seen
}

// MarkIdleCold sweeps every group and parks backends that have been
// active, idle (no in-flight or queued work), and unused for at least
// idleFor — the scale-to-zero janitor. Daemons call it on a ticker;
// hermetic benches call it with virtual time. Returns the number of
// backends parked.
func (r *Router) MarkIdleCold(idleFor time.Duration, now time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	cur := s
	cooled := 0
	cutoff := now.Add(-idleFor).UnixNano()
	for g, p := range s.groups {
		if p == nil {
			continue
		}
		var slots []slot
		for i := range p.slots {
			sl := p.slots[i]
			if sl.state != StateActive {
				continue
			}
			if sl.e.inflight.Load() > 0 || sl.e.lastUsed.Load() > cutoff {
				continue
			}
			if sl.e.q != nil && sl.e.q.Queued() > 0 {
				continue
			}
			if slots == nil {
				slots = append([]slot(nil), p.slots...)
			}
			slots[i].state = StateCold
			cooled++
		}
		if slots != nil {
			cur = cur.rebuild(g, slots)
		}
	}
	if cooled > 0 {
		// One publish for the whole sweep; Picks in the window
		// revalidate against the new pools and retry.
		r.snap.Store(cur)
	}
	return cooled
}

// TakeActivations drains and returns the per-group cold-start
// activation counts accumulated since the previous call — the
// autoscale controller folds them into its Decision (and their
// cold-start time into the cost model) once per slot. Returns nil
// when nothing activated.
func (r *Router) TakeActivations() map[int]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.activations
	r.activations = nil
	return out
}

// Release returns a picked backend's in-flight slot and folds the
// request's fate into the routed/dropped counters — all atomics, no
// critical section.
func (r *Router) Release(p Picked, ok bool) {
	p.e.lastUsed.Store(time.Now().UnixNano())
	p.e.inflight.Add(-1)
	if ok {
		r.routed.Add(1)
	} else {
		r.dropped.Add(1)
	}
}

// CountDrop records a request dropped before any backend was picked
// (e.g. no active backend for the group).
func (r *Router) CountDrop() { r.dropped.Add(1) }

// Counters reports the routed/dropped totals.
func (r *Router) Counters() (routed, dropped int64) {
	return r.routed.Load(), r.dropped.Load()
}

// Inflight reports a backend's current in-flight request count.
func (r *Router) Inflight(group int, baseURL string) (int, error) {
	s := r.snap.Load()
	p, idx := s.findSlot(group, baseURL)
	if idx < 0 {
		return 0, fmt.Errorf("%w: group %d url %s", ErrUnknownBackend, group, baseURL)
	}
	return int(p.slots[idx].e.inflight.Load()), nil
}

// Backends reports the registered groups and backend counts (active
// and draining alike — they are all still serving or finishing work).
func (r *Router) Backends() map[int]int {
	s := r.snap.Load()
	out := make(map[int]int, len(s.groups))
	for g, p := range s.groups {
		if p != nil {
			out[g] = len(p.slots)
		}
	}
	return out
}

// Pool snapshots one group's backends in registration order.
func (r *Router) Pool(group int) []BackendInfo {
	p := r.snap.Load().pool(group)
	if p == nil {
		return []BackendInfo{}
	}
	return poolInfos(p)
}

func poolInfos(p *pool) []BackendInfo {
	out := make([]BackendInfo, 0, len(p.slots))
	for _, sl := range p.slots {
		info := BackendInfo{
			URL:      sl.e.url,
			State:    sl.state,
			Version:  sl.e.version,
			Inflight: int(sl.e.inflight.Load()),
			Cold:     sl.state == StateCold,
		}
		if sl.e.q != nil {
			info.Queued = sl.e.q.Queued()
			info.ConcurrencyLimit = sl.e.q.Config().Limit
		}
		out = append(out, info)
	}
	return out
}

// ActiveCount reports how many of a group's backends accept new work.
func (r *Router) ActiveCount(group int) int {
	p := r.snap.Load().pool(group)
	if p == nil {
		return 0
	}
	return len(p.active)
}

// Stats is a consistent point-in-time view of the whole routing table,
// rendered without entering any critical section.
type Stats struct {
	Routed  int64
	Dropped int64
	Pools   map[int][]BackendInfo
}

// Stats snapshots counters and every pool from one atomic snapshot
// load — the /stats endpoint encodes this outside any lock.
func (r *Router) Stats() Stats {
	s := r.snap.Load()
	st := Stats{
		Routed:  r.routed.Load(),
		Dropped: r.dropped.Load(),
		Pools:   make(map[int][]BackendInfo, len(s.groups)),
	}
	for g, p := range s.groups {
		if p != nil {
			st.Pools[g] = poolInfos(p)
		}
	}
	return st
}
