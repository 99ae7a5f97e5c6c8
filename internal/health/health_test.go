package health

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/router"
)

// probeTable is a controllable probe implementation.
type probeTable struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *probeTable) set(url string, failing bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = map[string]bool{}
	}
	p.fail[url] = failing
}

func (p *probeTable) probe(_ context.Context, url string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[url] {
		return errors.New("injected probe failure")
	}
	return nil
}

func newManager(t *testing.T, cp router.Control, pt *probeTable, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		CP:            cp,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		SuccThreshold: 2,
		Probe:         pt.probe,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func stateOf(t *testing.T, r *router.Router, group int, url string) router.State {
	t.Helper()
	for _, info := range r.Pool(group) {
		if info.URL == url {
			return info.State
		}
	}
	t.Fatalf("backend %s not in pool %d", url, group)
	return ""
}

func TestCrashDetectionEjectsBeforeThirdFailedProbe(t *testing.T) {
	r := router.New(nil)
	for _, u := range []string{"http://a", "http://b"} {
		if err := r.Register(1, u); err != nil {
			t.Fatal(err)
		}
	}
	pt := &probeTable{}
	m := newManager(t, r, pt, nil)
	ctx := context.Background()

	m.ProbeOnce(ctx) // both healthy
	pt.set("http://a", true)
	m.ProbeOnce(ctx) // 1st failure: suspect
	if got := stateOf(t, r, 1, "http://a"); got != router.StateActive {
		t.Fatalf("state after 1 failed probe = %s, want active", got)
	}
	if down := m.Down(1); len(down) != 0 {
		t.Fatalf("down after 1 failed probe = %v", down)
	}
	m.ProbeOnce(ctx) // 2nd failure: down + ejected
	if got := stateOf(t, r, 1, "http://a"); got != router.StateEjected {
		t.Fatalf("state after 2 failed probes = %s, want ejected", got)
	}
	if down := m.Down(1); len(down) != 1 || down[0] != "http://a" {
		t.Fatalf("down = %v", down)
	}
	log := m.Ejections()
	if len(log) != 1 || log[0].Cause != "probe" || log[0].ProbeFails != 2 {
		t.Fatalf("ejection log = %+v, want probe-cause with 2 fails (before the 3rd)", log)
	}
	// Survivor keeps serving.
	if got := r.ActiveCount(1); got != 1 {
		t.Fatalf("active = %d", got)
	}

	// Recovery: the address answers again (hang cleared) — two clean
	// probes reinstate it.
	pt.set("http://a", false)
	m.ProbeOnce(ctx)
	m.ProbeOnce(ctx)
	if got := stateOf(t, r, 1, "http://a"); got != router.StateActive {
		t.Fatalf("state after recovery = %s, want active", got)
	}
	if down := m.Down(1); len(down) != 0 {
		t.Fatalf("down after recovery = %v", down)
	}
}

func TestMinActiveFloorRefusesToEmptyPool(t *testing.T) {
	r := router.New(nil)
	if err := r.Register(1, "http://only"); err != nil {
		t.Fatal(err)
	}
	pt := &probeTable{}
	pt.set("http://only", true)
	m := newManager(t, r, pt, nil)
	for i := 0; i < 5; i++ {
		m.ProbeOnce(context.Background())
	}
	// Down for the repair loop, but never ejected: a sick backend still
	// beats an empty pool.
	if down := m.Down(1); len(down) != 1 {
		t.Fatalf("down = %v", down)
	}
	if got := stateOf(t, r, 1, "http://only"); got != router.StateActive {
		t.Fatalf("state = %s, want active (min-active floor)", got)
	}
}

func TestPassiveErrorBurstEjectsDegraded(t *testing.T) {
	r := router.New(nil)
	for _, u := range []string{"http://a", "http://b"} {
		if err := r.Register(1, u); err != nil {
			t.Fatal(err)
		}
	}
	pt := &probeTable{}
	m := newManager(t, r, pt, func(c *Config) {
		c.PassiveErrors = 3
		c.EjectionCooldown = 20 * time.Millisecond
	})
	m.ProbeOnce(context.Background())
	for i := 0; i < 3; i++ {
		m.Observe(1, "http://a", errors.New("boom"), 5)
	}
	if got := stateOf(t, r, 1, "http://a"); got != router.StateEjected {
		t.Fatalf("state after error burst = %s, want ejected", got)
	}
	// Degraded, not Down: probes still pass, so no repair is owed.
	if down := m.Down(1); len(down) != 0 {
		t.Fatalf("down = %v, degraded backends must not be repaired", down)
	}
	log := m.Ejections()
	if len(log) != 1 || log[0].Cause != "errors" {
		t.Fatalf("ejection log = %+v", log)
	}

	// Cooldown then trial reinstatement via clean probes.
	time.Sleep(25 * time.Millisecond) // cooldown = 2×interval below
	m.ProbeOnce(context.Background())
	m.ProbeOnce(context.Background())
	if got := stateOf(t, r, 1, "http://a"); got != router.StateActive {
		t.Fatalf("state after cooldown = %s, want active (trial reinstatement)", got)
	}
}

func TestLatencyQuantileEjection(t *testing.T) {
	r := router.New(nil)
	for _, u := range []string{"http://slow", "http://fast"} {
		if err := r.Register(1, u); err != nil {
			t.Fatal(err)
		}
	}
	pt := &probeTable{}
	m := newManager(t, r, pt, func(c *Config) {
		c.LatencyLimitMs = 100
		c.LatencyWindow = 16
	})
	m.ProbeOnce(context.Background())
	for i := 0; i < 32; i++ {
		m.Observe(1, "http://slow", nil, 500)
		m.Observe(1, "http://fast", nil, 5)
	}
	if got := stateOf(t, r, 1, "http://slow"); got != router.StateEjected {
		t.Fatalf("slow backend state = %s, want ejected", got)
	}
	if got := stateOf(t, r, 1, "http://fast"); got != router.StateActive {
		t.Fatalf("fast backend state = %s, want active", got)
	}
	log := m.Ejections()
	if len(log) != 1 || log[0].Cause != "latency" {
		t.Fatalf("ejection log = %+v", log)
	}
}

func TestForgetDropsStateAndCountsRepair(t *testing.T) {
	r := router.New(nil)
	for _, u := range []string{"http://a", "http://b"} {
		if err := r.Register(1, u); err != nil {
			t.Fatal(err)
		}
	}
	pt := &probeTable{}
	pt.set("http://a", true)
	m := newManager(t, r, pt, nil)
	m.ProbeOnce(context.Background())
	m.ProbeOnce(context.Background())
	if down := m.Down(1); len(down) != 1 {
		t.Fatalf("down = %v", down)
	}
	m.Forget(1, "http://a")
	if down := m.Down(1); len(down) != 0 {
		t.Fatalf("down after forget = %v", down)
	}
	if got := m.Repairs(); got != 1 {
		t.Fatalf("repairs = %d", got)
	}
}

func TestViewReportsPhiAndOrder(t *testing.T) {
	r := router.New(nil)
	for g := 1; g <= 2; g++ {
		for i := 0; i < 2; i++ {
			if err := r.Register(g, fmt.Sprintf("http://g%d-%d", g, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pt := &probeTable{}
	m := newManager(t, r, pt, nil)
	m.ProbeOnce(context.Background())
	view := m.View()
	if len(view) != 4 {
		t.Fatalf("view length = %d", len(view))
	}
	for i := 1; i < len(view); i++ {
		a, b := view[i-1], view[i]
		if a.Group > b.Group || (a.Group == b.Group && a.URL >= b.URL) {
			t.Fatalf("view not ordered: %+v before %+v", a, b)
		}
	}
	for _, bh := range view {
		if bh.Status != StatusHealthy || bh.Phi < 0 {
			t.Fatalf("unexpected backend health %+v", bh)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("nil control plane should fail")
	}
	r := router.New(nil)
	for _, mut := range []func(*Config){
		func(c *Config) { c.ProbeInterval = -1 },
		func(c *Config) { c.FailThreshold = -1 },
		func(c *Config) { c.LatencyQuantile = 1.5 },
		func(c *Config) { c.MinActive = -2 },
	} {
		cfg := Config{CP: r}
		mut(&cfg)
		if _, err := NewManager(cfg); err == nil {
			t.Fatalf("config %+v should fail validation", cfg)
		}
	}
}
