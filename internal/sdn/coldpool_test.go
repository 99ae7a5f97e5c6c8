package sdn

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
)

// TestColdPoolParkAndActivate walks the scale-to-zero lifecycle at the
// front-end: an idle backend is parked by SweepCold, /stats marks it
// cold, the next request reactivates it (paying the configured
// cold-start latency), and TakeActivations hands the activation count
// to the autoscale cost model exactly once.
func TestColdPoolParkAndActivate(t *testing.T) {
	const coldStart = 30 * time.Millisecond
	fe, err := New(WithColdPool(50*time.Millisecond, coldStart))
	if err != nil {
		t.Fatal(err)
	}
	sur, err := dalvik.NewSurrogate("surrogate-1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := sur.PushPool(tasks.DefaultPool()); err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(sur.Handler())
	t.Cleanup(backend.Close)
	if err := fe.Register(1, backend.URL); err != nil {
		t.Fatal(err)
	}

	st, err := tasks.Minimax{}.Generate(sim.NewRNG(5).Stream("gen"), 5)
	if err != nil {
		t.Fatal(err)
	}
	offload := func() (rpc.OffloadResponse, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, code := fe.Offload(context.Background(), rpc.OffloadRequest{
			UserID: 1, Group: 1, BatteryLevel: 0.8, State: st,
		})
		if code != 200 {
			t.Fatalf("offload code %d: %+v", code, resp)
		}
		return resp, time.Since(start)
	}
	offload() // warm use, stamps lastUsed

	// Not idle long enough: the sweep must not park it.
	if n := fe.SweepCold(time.Now()); n != 0 {
		t.Fatalf("premature sweep parked %d backends", n)
	}
	// Virtual "an hour later": the backend is idle and parks.
	if n := fe.SweepCold(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep parked %d backends, want 1", n)
	}
	pool := fe.Pool(1)
	if len(pool) != 1 || !pool[0].Cold || pool[0].State != router.StateCold {
		t.Fatalf("pool after sweep = %+v", pool)
	}
	if fe.ActiveCount(1) != 0 {
		t.Fatalf("active count = %d after park", fe.ActiveCount(1))
	}

	// First arrival reactivates, charged with the cold-start latency.
	_, took := offload()
	if took < coldStart {
		t.Fatalf("cold request took %v, want >= the %v cold start", took, coldStart)
	}
	if acts := fe.TakeActivations(); len(acts) != 1 || acts[1] != 1 {
		t.Fatalf("activations = %v, want map[1:1]", acts)
	}
	// The drain is one-shot: the controller must not double-bill.
	if acts := fe.TakeActivations(); acts != nil {
		t.Fatalf("second TakeActivations = %v, want nil", acts)
	}
	// Back in rotation: warm requests pay no cold start.
	if _, took := offload(); took >= coldStart {
		t.Fatalf("warm request took %v, should not pay the cold start again", took)
	}
	if fe.ColdStartLatency() != coldStart {
		t.Fatalf("ColdStartLatency = %v", fe.ColdStartLatency())
	}
}

// TestSweepColdSparesBusyBackends proves the janitor never parks a
// backend with queued or in-flight work: pressure resets idleness.
func TestSweepColdSparesBusyBackends(t *testing.T) {
	fe, err := New(WithColdPool(time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Register(1, "http://a"); err != nil {
		t.Fatal(err)
	}
	// Reserve the backend as an in-flight request would.
	rt := fe.rt
	p, err := rt.Pick(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := fe.SweepCold(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep parked %d backends with work in flight", n)
	}
	rt.Release(p, true)
	if n := fe.SweepCold(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep parked %d idle backends, want 1", n)
	}
}

// TestSweepColdNoopWithoutColdPool pins the compatibility default:
// front-ends built without WithColdPool never park anything.
func TestSweepColdNoopWithoutColdPool(t *testing.T) {
	fe, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Register(1, "http://a"); err != nil {
		t.Fatal(err)
	}
	if n := fe.SweepCold(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Fatalf("cold-pool-free front-end parked %d backends", n)
	}
	if got := fe.Pool(1)[0].State; got != router.StateActive {
		t.Fatalf("state = %s", got)
	}
}
