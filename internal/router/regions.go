package router

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The region tier sits one level above the backend pools: where a
// Router picks a surrogate inside one region, a Regions set picks which
// region's front-end a device-side call enters. It reuses the same RCU
// discipline as the backend snapshot — immutable snapshots behind an
// atomic pointer, reserve-then-revalidate picks, publish-under-mutex
// mutations — so the fence guarantee carries over verbatim: once
// MarkDown (or Remove) returns, no PickFirst that started afterwards
// can resolve into that region.

// RegionState is a region's routability.
type RegionState int32

const (
	// RegionUp takes traffic.
	RegionUp RegionState = iota
	// RegionDown is fenced: chaos-killed or failing health probes. The
	// spillover path skips it and re-routes to the next region in the
	// device's preference order.
	RegionDown
)

// String renders the state for /stats payloads and test failures.
func (s RegionState) String() string {
	if s == RegionUp {
		return "up"
	}
	return "down"
}

// ErrNoRegion means every region in the caller's preference order is
// Down (or unknown): the device has nowhere left to spill.
var ErrNoRegion = errors.New("router: no Up region in preference order")

// regionEntry is one region's identity plus its in-flight reservation
// count. Entries are shared across snapshots so the count survives
// state flips.
type regionEntry struct {
	name     string
	inflight atomic.Int64
}

// regionSlot pairs an entry with its state in one snapshot.
type regionSlot struct {
	e     *regionEntry
	state RegionState
}

// regionSnapshot is one immutable generation of the region set.
type regionSnapshot struct {
	slots []regionSlot
	index map[string]int
}

// Regions is the concurrent region set. The zero value is not usable;
// construct with NewRegions.
type Regions struct {
	snap atomic.Pointer[regionSnapshot]
	mu   sync.Mutex // serializes mutations; reads never take it
}

// NewRegions builds a set with the given regions, all Up.
func NewRegions(names ...string) (*Regions, error) {
	r := &Regions{}
	r.snap.Store(&regionSnapshot{index: map[string]int{}})
	for _, n := range names {
		if err := r.Add(n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// rebuild clones the current snapshot's slots for mutation. Callers
// hold r.mu.
func (r *Regions) rebuild() []regionSlot {
	old := r.snap.Load()
	slots := make([]regionSlot, len(old.slots))
	copy(slots, old.slots)
	return slots
}

// publish installs slots as the new snapshot. Callers hold r.mu.
func (r *Regions) publish(slots []regionSlot) {
	idx := make(map[string]int, len(slots))
	for i, s := range slots {
		idx[s.e.name] = i
	}
	r.snap.Store(&regionSnapshot{slots: slots, index: idx})
}

// Add registers a new region, initially Up.
func (r *Regions) Add(name string) error {
	if name == "" {
		return errors.New("router: empty region name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.snap.Load().index[name]; dup {
		return fmt.Errorf("router: region %q already registered", name)
	}
	slots := append(r.rebuild(), regionSlot{e: &regionEntry{name: name}, state: RegionUp})
	r.publish(slots)
	return nil
}

// setState flips one region's state and publishes the new generation.
func (r *Regions) setState(name string, st RegionState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.snap.Load().index[name]
	if !ok {
		return fmt.Errorf("router: unknown region %q", name)
	}
	slots := r.rebuild()
	slots[i].state = st
	r.publish(slots)
	return nil
}

// MarkDown fences a region. When MarkDown returns, the Down snapshot is
// published: any PickFirst that starts afterwards skips the region, and
// picks racing the flip either revalidate against the new snapshot or
// roll back and retry — none resolve into the fenced region.
func (r *Regions) MarkDown(name string) error { return r.setState(name, RegionDown) }

// MarkUp reinstates a recovered region.
func (r *Regions) MarkUp(name string) error { return r.setState(name, RegionUp) }

// Remove deregisters a region entirely. It refuses while calls are in
// flight: a Down generation is published first (fencing new picks),
// then the reservation count is rechecked — if stragglers hold
// reservations the fence rolls back and the caller retries after they
// drain. The region stays registered until the recheck passes, so
// Inflight and the /stats view never lose sight of a live reservation.
func (r *Regions) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	i, ok := old.index[name]
	if !ok {
		return fmt.Errorf("router: unknown region %q", name)
	}
	e := old.slots[i].e
	fence := r.rebuild()
	fence[i].state = RegionDown
	r.publish(fence)
	if n := e.inflight.Load(); n != 0 {
		// Publish-then-recheck: the fence stopped new picks, but a
		// pick that reserved before the flip may still be in flight.
		// Roll the old generation back and report the conflict.
		r.publish(old.slots)
		return fmt.Errorf("router: region %q has %d calls in flight", name, n)
	}
	r.publish(append(fence[:i:i], fence[i+1:]...))
	return nil
}

// State reports a region's current state.
func (r *Regions) State(name string) (RegionState, bool) {
	s := r.snap.Load()
	i, ok := s.index[name]
	if !ok {
		return RegionDown, false
	}
	return s.slots[i].state, true
}

// Inflight reports a region's current reservation count (0 for unknown
// regions).
func (r *Regions) Inflight(name string) int64 {
	s := r.snap.Load()
	if i, ok := s.index[name]; ok {
		return s.slots[i].e.inflight.Load()
	}
	return 0
}

// Names lists the registered regions in registration order.
func (r *Regions) Names() []string {
	s := r.snap.Load()
	out := make([]string, 0, len(s.slots))
	for _, sl := range s.slots {
		out = append(out, sl.e.name)
	}
	return out
}

// View reports every region's state — the /stats rendering.
func (r *Regions) View() map[string]string {
	s := r.snap.Load()
	out := make(map[string]string, len(s.slots))
	for _, sl := range s.slots {
		out[sl.e.name] = sl.state.String()
	}
	return out
}

// RegionPick is one reserved region; callers must Release it when the
// call resolves.
type RegionPick struct {
	e *regionEntry
}

// Name is the picked region.
func (p RegionPick) Name() string { return p.e.name }

// PickFirst reserves the first Up region in the caller's preference
// order (nearest first, from the device's RTT selector). The reserve is
// revalidated against the live snapshot: if a mutation published while
// the reservation was being taken, the pick rolls back and re-reads —
// so a region fenced by MarkDown can never be returned by a PickFirst
// that started after MarkDown returned.
func (r *Regions) PickFirst(order []string) (RegionPick, error) {
	for {
		s := r.snap.Load()
		var e *regionEntry
		for _, name := range order {
			i, ok := s.index[name]
			if !ok || s.slots[i].state != RegionUp {
				continue
			}
			e = s.slots[i].e
			break
		}
		if e == nil {
			return RegionPick{}, ErrNoRegion
		}
		e.inflight.Add(1)
		if r.snap.Load() == s {
			return RegionPick{e: e}, nil
		}
		// A mutation raced the reservation; the region may have been
		// fenced between read and reserve. Roll back and re-read.
		e.inflight.Add(-1)
	}
}

// Release returns a pick's reservation.
func (r *Regions) Release(p RegionPick) {
	if p.e != nil {
		p.e.inflight.Add(-1)
	}
}
