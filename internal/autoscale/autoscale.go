// Package autoscale closes the paper's control cycle (§IV) against the
// running SDN front-end: on each time slot the live request log
// (trace.Window) feeds the edit-distance workload predictor (§IV-B),
// the predicted per-group demand is solved into the cost-minimal
// instance allocation (§IV-C), and the front-end's per-group surrogate
// pools are reconciled toward the plan — scale-up from a warm pool of
// pre-booted surrogates, scale-down via connection draining, with
// hysteresis and a cooldown to prevent flapping. CloneCloud and
// ThinkAir argue this on-demand scaling of surrogate VMs is what makes
// offloading economical; KServe's serving reconciler is the structural
// model (see PAPERS.md).
//
// Determinism contract: a Controller's decision sequence is a pure
// function of (Config, observed slot sequence). Maps are never iterated
// for decisions, warm-pool handling is FIFO, scale-down picks the
// newest actives first, and anything random draws from sim.RNG
// substreams — so the hermetic sweep driver (sweep.go) produces
// bit-identical decision digests across same-seed runs. See DESIGN.md
// §5 for the control-cycle diagram and reconciler states.
package autoscale

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"accelcloud/internal/allocate"
	"accelcloud/internal/cloud"
	"accelcloud/internal/predict"
	"accelcloud/internal/router"
	"accelcloud/internal/sdn"
	"accelcloud/internal/sim"
	"accelcloud/internal/trace"
)

// Backend is one provisioned surrogate endpoint the reconciler manages.
type Backend interface {
	// URL is the base URL the front-end routes to.
	URL() string
	// Close tears the surrogate down.
	Close() error
}

// Provisioner boots surrogate backends. Boot must return a backend that
// is immediately ready to serve (the warm pool hides any real boot
// latency from the reconcile path).
type Provisioner interface {
	Boot(ctx context.Context, id string) (Backend, error)
}

// GroupSpec binds an acceleration group to its instance economics.
type GroupSpec struct {
	// Group is the acceleration group index (absolute, as routed).
	Group int
	// TypeName names the instance type for reporting.
	TypeName string
	// CostPerHour is c_s in the allocation objective.
	CostPerHour float64
	// Capacity is K_s: the per-slot demand one instance serves within
	// the SLA.
	Capacity float64
	// Min floors the group's pool (0 selects 1) so stragglers keep
	// being served through zero-demand predictions.
	Min int
}

// Config parameterizes a Controller.
type Config struct {
	// FrontEnd is the live SDN front-end whose pools are reconciled.
	FrontEnd *sdn.FrontEnd
	// Provisioner boots surrogates for the warm pool and scale-ups.
	Provisioner Provisioner
	// Groups are the managed acceleration groups.
	Groups []GroupSpec
	// Predictor estimates the next slot; nil selects the paper's
	// edit-distance model.
	Predictor predict.Predictor
	// MaxHistory bounds the predictor's knowledge base
	// (0 = predict.DefaultMaxHistory).
	MaxHistory int
	// CC caps total instances across groups (0 = allocate.DefaultCC).
	CC int
	// SlotLen is the provisioning slot length, used for cost accounting
	// (instances bill per slot at CostPerHour × slot hours).
	SlotLen time.Duration
	// WarmPool is the number of pre-booted spare surrogates kept ready
	// (0 selects 1). Scale-ups draw from it instantly; it is refilled
	// after each reconcile.
	WarmPool int
	// ScaleDownMargin is the hysteresis band: a group only drains when
	// its surplus (current − desired) reaches the margin (0 selects 1,
	// i.e. any surplus may drain once the cooldown allows).
	ScaleDownMargin int
	// CooldownSlots is the number of quiet slots required after any
	// scale action before a group may scale down again (0 selects 1).
	// Scale-ups are never delayed: under-provisioning burns the SLO.
	CooldownSlots int
	// RNG roots any randomness (currently instance-id salting); nil
	// selects sim.NewRNG(1). Substream-derived so runs are reproducible.
	RNG *sim.RNG
	// Health, when non-nil, feeds the self-healing repair path: on each
	// Step, backends the detector has confirmed Down (probe-dead, not
	// merely degraded) are evicted and replaced from the warm pool
	// before any scaling decision — a repair Decision in the audit log.
	// internal/health's Manager implements it.
	Health HealthView
}

// HealthView is the slice of the failure detector the repair path
// consumes: the probe-confirmed-dead backends of a group (sorted, so
// repairs replay deterministically), and an acknowledgement hook that
// clears a backend's health state once it has been evicted and
// replaced.
type HealthView interface {
	Down(group int) []string
	Forget(group int, url string)
}

// ParseGroupSpec resolves a "g=type:capacity[:min]" flag value (the
// repeated -group flag of cmd/autoscaled and cmd/chaosbench) against
// the instance catalog. defaultMin floors the pool when the :min
// suffix is absent (0 keeps the controller's default of 1).
func ParseGroupSpec(v string, defaultMin int) (GroupSpec, error) {
	eq := strings.SplitN(v, "=", 2)
	if len(eq) != 2 {
		return GroupSpec{}, fmt.Errorf("group %q: want g=type:capacity[:min]", v)
	}
	id, err := strconv.Atoi(strings.TrimSpace(eq[0]))
	if err != nil {
		return GroupSpec{}, fmt.Errorf("group %q: bad index: %w", v, err)
	}
	parts := strings.Split(eq[1], ":")
	if len(parts) != 2 && len(parts) != 3 {
		return GroupSpec{}, fmt.Errorf("group %q: want g=type:capacity[:min]", v)
	}
	capacity, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return GroupSpec{}, fmt.Errorf("group %q: bad capacity: %w", v, err)
	}
	min := defaultMin
	if len(parts) == 3 {
		if min, err = strconv.Atoi(parts[2]); err != nil {
			return GroupSpec{}, fmt.Errorf("group %q: bad min: %w", v, err)
		}
	}
	typ, err := cloud.DefaultCatalog().ByName(strings.TrimSpace(parts[0]))
	if err != nil {
		return GroupSpec{}, fmt.Errorf("group %q: %w", v, err)
	}
	return GroupSpec{
		Group:       id,
		TypeName:    typ.Name,
		CostPerHour: typ.PricePerHour,
		Capacity:    capacity,
		Min:         min,
	}, nil
}

// Decision kinds.
const (
	// DecisionReconcile is a plain control cycle.
	DecisionReconcile = "reconcile"
	// DecisionRepair marks a cycle that replaced dead capacity.
	DecisionRepair = "repair"
)

// managed is one surrogate under reconciler control.
type managed struct {
	id      string
	backend Backend
	group   int // -1 while warm
}

// Decision is one slot's control-cycle outcome — the audit log entry
// the decision digest hashes.
type Decision struct {
	// Kind classifies the decision: "reconcile" for a plain control
	// cycle, "repair" when the cycle also replaced probe-confirmed-dead
	// backends from the warm pool.
	Kind string `json:"kind"`
	// Slot is the 0-based slot index.
	Slot int `json:"slot"`
	// Observed is the per-managed-group demand of the slot that just
	// ended, in Config.Groups order.
	Observed []int `json:"observed"`
	// Predicted is the model's estimate for the next slot.
	Predicted []int `json:"predicted"`
	// Desired is the allocator's target pool size per group.
	Desired []int `json:"desired"`
	// Applied is the active pool size per group after reconciling.
	Applied []int `json:"applied"`
	// Repaired counts the dead backends replaced per group this slot.
	Repaired []int `json:"repaired,omitempty"`
	// Activated counts the scale-to-zero cold starts per group this
	// slot (front-end cold-pool reactivations). Nil when no backend was
	// activated — absent entirely in digests of cold-pool-free runs, so
	// historical digests are unaffected.
	Activated []int `json:"activated,omitempty"`
	// Warm and Draining count the off-rotation surrogates.
	Warm     int `json:"warm"`
	Draining int `json:"draining"`
	// CostUSD is the slot's instance bill (active + draining + warm).
	CostUSD float64 `json:"costUSD"`
	// Feasible is false when demand exceeded the cloud cap and the
	// controller held the previous pools.
	Feasible bool `json:"feasible"`
}

// Controller is the reconciler. It is not safe for concurrent use: one
// control loop drives it, slot by slot.
type Controller struct {
	cfg     Config
	groups  []GroupSpec // sorted by Group
	session *predict.Session
	alloc   *allocate.Allocator

	active   map[int][]*managed // per group, registration order
	draining []*managed
	warm     []*managed

	// quiet counts slots since the last scale action per group.
	quiet map[int]int

	decisions []Decision
	bootSeq   int
	slotIdx   int
	numGroups int // max group index + 1, for slot padding
}

// New validates the configuration and builds an idle controller; call
// Prime before serving traffic.
func New(cfg Config) (*Controller, error) {
	if cfg.FrontEnd == nil {
		return nil, errors.New("autoscale: nil front-end")
	}
	if cfg.Provisioner == nil {
		return nil, errors.New("autoscale: nil provisioner")
	}
	if len(cfg.Groups) == 0 {
		return nil, errors.New("autoscale: no group specs")
	}
	if cfg.SlotLen <= 0 {
		return nil, fmt.Errorf("autoscale: slot length %v <= 0", cfg.SlotLen)
	}
	if cfg.WarmPool < 0 || cfg.ScaleDownMargin < 0 || cfg.CooldownSlots < 0 {
		return nil, errors.New("autoscale: negative warm pool, margin, or cooldown")
	}
	if cfg.WarmPool == 0 {
		cfg.WarmPool = 1
	}
	if cfg.ScaleDownMargin == 0 {
		cfg.ScaleDownMargin = 1
	}
	if cfg.CooldownSlots == 0 {
		cfg.CooldownSlots = 1
	}
	if cfg.Predictor == nil {
		cfg.Predictor = predict.EditDistanceNN{}
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(1)
	}
	groups := make([]GroupSpec, len(cfg.Groups))
	copy(groups, cfg.Groups)
	sort.Slice(groups, func(i, j int) bool { return groups[i].Group < groups[j].Group })
	numGroups := 0
	seen := map[int]bool{}
	specs := make([]allocate.Spec, 0, len(groups))
	for i := range groups {
		g := &groups[i]
		if g.Group < 0 {
			return nil, fmt.Errorf("autoscale: negative group %d", g.Group)
		}
		if seen[g.Group] {
			return nil, fmt.Errorf("autoscale: duplicate group %d", g.Group)
		}
		seen[g.Group] = true
		if g.TypeName == "" {
			return nil, fmt.Errorf("autoscale: group %d without type name", g.Group)
		}
		if g.Capacity <= 0 {
			return nil, fmt.Errorf("autoscale: group %d capacity %v <= 0", g.Group, g.Capacity)
		}
		if g.CostPerHour < 0 {
			return nil, fmt.Errorf("autoscale: group %d negative cost", g.Group)
		}
		if g.Min < 0 {
			return nil, fmt.Errorf("autoscale: group %d negative min", g.Group)
		}
		if g.Min == 0 {
			g.Min = 1
		}
		if g.Group+1 > numGroups {
			numGroups = g.Group + 1
		}
		// The allocator's demand index is the position in sorted order.
		specs = append(specs, allocate.Spec{
			TypeName:    g.TypeName,
			Group:       i,
			CostPerHour: g.CostPerHour,
			Capacity:    g.Capacity,
		})
	}
	session, err := predict.NewSession(cfg.Predictor, cfg.MaxHistory)
	if err != nil {
		return nil, err
	}
	alloc, err := allocate.NewAllocator(specs, len(groups), cfg.CC)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		groups:    groups,
		session:   session,
		alloc:     alloc,
		active:    make(map[int][]*managed, len(groups)),
		quiet:     make(map[int]int, len(groups)),
		numGroups: numGroups,
	}
	for _, g := range groups {
		c.quiet[g.Group] = cfg.CooldownSlots // allow a first-slot scale-down
	}
	return c, nil
}

// NumGroups reports the slot width (max managed group index + 1) the
// controller expects from its trace window.
func (c *Controller) NumGroups() int { return c.numGroups }

// boot provisions one surrogate with a deterministic id.
func (c *Controller) boot(ctx context.Context) (*managed, error) {
	id := fmt.Sprintf("as-%d-%08x", c.bootSeq, uint32(c.cfg.RNG.Sub("autoscale-id").SubN("boot", c.bootSeq).Seed()))
	c.bootSeq++
	b, err := c.cfg.Provisioner.Boot(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("autoscale: boot %s: %w", id, err)
	}
	return &managed{id: id, backend: b, group: -1}, nil
}

// takeWarm pops the oldest warm surrogate, booting a fresh one when the
// pool is empty (the cold path scale-ups normally avoid).
func (c *Controller) takeWarm(ctx context.Context) (*managed, error) {
	if len(c.warm) > 0 {
		m := c.warm[0]
		c.warm = c.warm[1:]
		return m, nil
	}
	return c.boot(ctx)
}

// refillWarm tops the warm pool back up to its configured size.
func (c *Controller) refillWarm(ctx context.Context) error {
	for len(c.warm) < c.cfg.WarmPool {
		m, err := c.boot(ctx)
		if err != nil {
			return err
		}
		c.warm = append(c.warm, m)
	}
	return nil
}

// reclaimDraining un-drains the newest draining backend of a group, if
// any: Register flips a draining backend back to active in place, so a
// prediction flap (drain in slot t, scale-up in slot t+1) costs
// nothing — no boot, no churn, and its in-flight work was never at
// risk.
func (c *Controller) reclaimDraining(group int) *managed {
	for i := len(c.draining) - 1; i >= 0; i-- {
		if c.draining[i].group == group {
			m := c.draining[i]
			c.draining = append(c.draining[:i], c.draining[i+1:]...)
			return m
		}
	}
	return nil
}

// scaleUp grows a group by n: draining backends of the same group are
// reclaimed in place first, then warm surrogates are registered.
func (c *Controller) scaleUp(ctx context.Context, group, n int) error {
	for i := 0; i < n; i++ {
		if m := c.reclaimDraining(group); m != nil {
			if err := c.cfg.FrontEnd.Register(group, m.backend.URL()); err != nil {
				return fmt.Errorf("autoscale: un-drain in group %d: %w", group, err)
			}
			c.active[group] = append(c.active[group], m)
			continue
		}
		m, err := c.takeWarm(ctx)
		if err != nil {
			return err
		}
		if err := c.cfg.FrontEnd.Register(group, m.backend.URL()); err != nil {
			c.warm = append(c.warm, m) // keep the surrogate; retry next slot
			return fmt.Errorf("autoscale: register in group %d: %w", group, err)
		}
		m.group = group
		c.active[group] = append(c.active[group], m)
	}
	return nil
}

// scaleDown drains the n newest actives of a group; they finish their
// in-flight requests and return to the warm pool once idle.
func (c *Controller) scaleDown(group, n int) error {
	pool := c.active[group]
	if n > len(pool) {
		n = len(pool)
	}
	keep := len(pool) - n
	for _, m := range pool[keep:] {
		if err := c.cfg.FrontEnd.Drain(group, m.backend.URL()); err != nil {
			return fmt.Errorf("autoscale: drain %s: %w", m.id, err)
		}
		c.draining = append(c.draining, m)
	}
	c.active[group] = pool[:keep]
	return nil
}

// reap removes quiesced draining surrogates from the front-end and
// returns them all to the warm pool — temporarily unbounded, so a
// scale-up later in the same control cycle reuses them instead of
// booting fresh instances. trimWarm restores the cap at cycle end.
func (c *Controller) reap() error {
	remaining := c.draining[:0]
	for _, m := range c.draining {
		n, err := c.cfg.FrontEnd.Inflight(m.group, m.backend.URL())
		if err != nil {
			return fmt.Errorf("autoscale: reap %s: %w", m.id, err)
		}
		if n > 0 {
			remaining = append(remaining, m)
			continue
		}
		if err := c.cfg.FrontEnd.Remove(m.group, m.backend.URL()); err != nil {
			// A request may have landed between the checks; retry next
			// slot rather than abandoning in-flight work.
			if errors.Is(err, router.ErrBackendBusy) {
				remaining = append(remaining, m)
				continue
			}
			return fmt.Errorf("autoscale: remove %s: %w", m.id, err)
		}
		m.group = -1
		c.warm = append(c.warm, m)
	}
	c.draining = remaining
	return nil
}

// trimWarm terminates warm surrogates beyond the configured cap,
// newest first — the warm pool is a fixed-size buffer at the end of
// every cycle, not a graveyard.
func (c *Controller) trimWarm() {
	for len(c.warm) > c.cfg.WarmPool {
		m := c.warm[len(c.warm)-1]
		c.warm = c.warm[:len(c.warm)-1]
		_ = m.backend.Close()
	}
}

// Prime boots the warm pool and each group's Min actives — the initial
// deployment before traffic arrives.
func (c *Controller) Prime(ctx context.Context) error {
	for _, g := range c.groups {
		if err := c.scaleUp(ctx, g.Group, g.Min); err != nil {
			return err
		}
	}
	return c.refillWarm(ctx)
}

// observedDemands extracts the managed groups' demands from a slot, in
// sorted group order.
func (c *Controller) observedDemands(slot trace.Slot) []int {
	counts := slot.Counts()
	out := make([]int, len(c.groups))
	for i, g := range c.groups {
		if g.Group < len(counts) {
			out[i] = counts[g.Group]
		}
	}
	return out
}

// repair evicts probe-confirmed-dead backends and replaces each from
// the warm pool — capacity restoration BEFORE the scaling decision, so
// the allocator plans against pools that actually serve. Only backends
// this controller manages as active are repaired: a dead draining
// backend quiesces through reap, and warm spares are not registered
// anywhere a prober could watch. Returns per-managed-group repair
// counts in sorted group order.
func (c *Controller) repair(ctx context.Context) ([]int, error) {
	repaired := make([]int, len(c.groups))
	if c.cfg.Health == nil {
		return repaired, nil
	}
	for i, g := range c.groups {
		for _, url := range c.cfg.Health.Down(g.Group) {
			idx := -1
			for j, m := range c.active[g.Group] {
				if m.backend.URL() == url {
					idx = j
					break
				}
			}
			if idx < 0 {
				continue
			}
			m := c.active[g.Group][idx]
			c.active[g.Group] = append(c.active[g.Group][:idx], c.active[g.Group][idx+1:]...)
			if err := c.cfg.FrontEnd.Evict(g.Group, url); err != nil && !errors.Is(err, router.ErrUnknownBackend) {
				return nil, fmt.Errorf("autoscale: evict dead %s: %w", m.id, err)
			}
			_ = m.backend.Close()
			c.cfg.Health.Forget(g.Group, url)
			if err := c.scaleUp(ctx, g.Group, 1); err != nil {
				return nil, fmt.Errorf("autoscale: repair group %d: %w", g.Group, err)
			}
			repaired[i]++
		}
	}
	return repaired, nil
}

// Step runs one control cycle for a just-completed slot: repair dead
// capacity, reap drained surrogates, feed the slot to the predictor,
// allocate for the prediction, reconcile the pools, refill the warm
// pool, and record the decision.
func (c *Controller) Step(ctx context.Context, slot trace.Slot) (Decision, error) {
	repaired, err := c.repair(ctx)
	if err != nil {
		return Decision{}, err
	}
	if err := c.reap(); err != nil {
		return Decision{}, err
	}
	c.session.Observe(slot)
	pred, err := c.session.Predict()
	if err != nil {
		return Decision{}, err
	}
	observed := c.observedDemands(slot)
	predicted := c.observedDemands(pred)
	demands := make([]float64, len(c.groups))
	for i, n := range predicted {
		demands[i] = float64(n)
	}
	plan, err := c.alloc.Allocate(demands)
	if err != nil {
		return Decision{}, err
	}

	dec := Decision{
		Kind:      DecisionReconcile,
		Slot:      c.slotIdx,
		Observed:  observed,
		Predicted: predicted,
		Desired:   make([]int, len(c.groups)),
		Applied:   make([]int, len(c.groups)),
		Repaired:  repaired,
		Feasible:  plan.Feasible,
	}
	for _, n := range repaired {
		if n > 0 {
			dec.Kind = DecisionRepair
			break
		}
	}
	// Scale-to-zero reactivations since the last cycle: each cold start
	// stalled a request for the activation latency, billed below at the
	// group's instance rate.
	if acts := c.cfg.FrontEnd.TakeActivations(); len(acts) > 0 {
		dec.Activated = make([]int, len(c.groups))
		for i, g := range c.groups {
			dec.Activated[i] = int(acts[g.Group])
		}
	}
	for i, g := range c.groups {
		cur := len(c.active[g.Group])
		desired := cur // infeasible plans hold the current deployment
		if plan.Feasible {
			desired = plan.Counts[g.TypeName]
			if desired < g.Min {
				desired = g.Min
			}
		}
		dec.Desired[i] = desired
		switch {
		case desired > cur:
			// Scale up immediately: under-provisioning burns the SLO.
			if err := c.scaleUp(ctx, g.Group, desired-cur); err != nil {
				return Decision{}, err
			}
			c.quiet[g.Group] = 0
		case desired < cur && cur-desired >= c.cfg.ScaleDownMargin && c.quiet[g.Group] >= c.cfg.CooldownSlots:
			if err := c.scaleDown(g.Group, cur-desired); err != nil {
				return Decision{}, err
			}
			c.quiet[g.Group] = 0
		default:
			c.quiet[g.Group]++
		}
		dec.Applied[i] = len(c.active[g.Group])
	}
	if err := c.refillWarm(ctx); err != nil {
		return Decision{}, err
	}
	c.trimWarm()
	dec.Warm = len(c.warm)
	dec.Draining = len(c.draining)
	dec.CostUSD = c.slotCost()
	if dec.Activated != nil {
		// Cold starts are not free capacity: bill each activation's
		// stall at the group's instance rate for the activation window.
		coldHours := c.cfg.FrontEnd.ColdStartLatency().Hours()
		for i, g := range c.groups {
			dec.CostUSD += float64(dec.Activated[i]) * coldHours * g.CostPerHour
		}
	}
	c.decisions = append(c.decisions, dec)
	c.slotIdx++
	return dec, nil
}

// slotCost bills one slot: active and draining surrogates at their
// group's rate, warm spares at the cheapest configured rate (they are
// running, just unassigned).
func (c *Controller) slotCost() float64 {
	hours := c.cfg.SlotLen.Hours()
	cheapest := c.groups[0].CostPerHour
	byGroup := make(map[int]float64, len(c.groups))
	for _, g := range c.groups {
		byGroup[g.Group] = g.CostPerHour
		if g.CostPerHour < cheapest {
			cheapest = g.CostPerHour
		}
	}
	cost := 0.0
	for _, g := range c.groups {
		cost += float64(len(c.active[g.Group])) * g.CostPerHour * hours
	}
	for _, m := range c.draining {
		cost += byGroup[m.group] * hours
	}
	cost += float64(len(c.warm)) * cheapest * hours
	return cost
}

// Decisions returns the audit log, one entry per Step.
func (c *Controller) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// PoolSizes reports the current active pool size per managed group.
func (c *Controller) PoolSizes() map[int]int {
	out := make(map[int]int, len(c.groups))
	for _, g := range c.groups {
		out[g.Group] = len(c.active[g.Group])
	}
	return out
}

// WarmSize reports the warm pool size; DrainingSize the backends still
// finishing in-flight work.
func (c *Controller) WarmSize() int     { return len(c.warm) }
func (c *Controller) DrainingSize() int { return len(c.draining) }

// Digest hashes the decision sequence — the allocation digest two
// same-seed end-to-end runs must agree on bit-for-bit.
func (c *Controller) Digest() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		_, _ = h.Write(buf)
	}
	for _, d := range c.decisions {
		writeInt(int64(d.Slot))
		if d.Feasible {
			writeInt(1)
		} else {
			writeInt(0)
		}
		for i := range c.groups {
			writeInt(int64(d.Observed[i]))
			writeInt(int64(d.Predicted[i]))
			writeInt(int64(d.Desired[i]))
			writeInt(int64(d.Applied[i]))
			// Repair decisions are part of the audited behaviour: a
			// same-seed run must replace the same dead backends in the
			// same slots.
			if len(d.Repaired) > 0 {
				writeInt(int64(d.Repaired[i]))
			} else {
				writeInt(0)
			}
			// Cold-pool activations hash only when present: runs
			// without scale-to-zero keep their historical digests.
			if len(d.Activated) > 0 {
				writeInt(int64(d.Activated[i]))
			}
		}
		writeInt(int64(d.Warm))
		writeInt(int64(d.Draining))
		writeInt(int64(d.CostUSD * 1e6)) // micro-dollars: exact for list prices
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// Shutdown closes every managed surrogate (active, draining, warm). The
// front-end keeps its registrations; callers tearing down a whole stack
// close the front-end first.
func (c *Controller) Shutdown() {
	for _, g := range c.groups {
		for _, m := range c.active[g.Group] {
			_ = m.backend.Close()
		}
		c.active[g.Group] = nil
	}
	for _, m := range c.draining {
		_ = m.backend.Close()
	}
	c.draining = nil
	for _, m := range c.warm {
		_ = m.backend.Close()
	}
	c.warm = nil
}
