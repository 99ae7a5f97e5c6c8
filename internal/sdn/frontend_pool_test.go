package sdn

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
)

// countingBackend is one surrogate behind a request counter.
type countingBackend struct {
	srv  *httptest.Server
	hits atomic.Int64
}

func newCountingBackend(t *testing.T, name string) *countingBackend {
	t.Helper()
	sur, err := dalvik.NewSurrogate(name, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sur.PushPool(tasks.DefaultPool()); err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{}
	handler := sur.Handler()
	cb.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == rpc.PathExecute {
			cb.hits.Add(1)
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(cb.srv.Close)
	return cb
}

func TestFrontEndPoolLifecycle(t *testing.T) {
	fe, err := New()
	if err != nil {
		t.Fatal(err)
	}
	b := newCountingBackend(t, "s-1")
	if err := fe.Register(1, b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := fe.Register(1, b.srv.URL); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if err := fe.Drain(1, b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := fe.ActiveCount(1); got != 0 {
		t.Fatalf("active = %d after drain", got)
	}
	// Re-registering a draining backend re-activates it in place.
	if err := fe.Register(1, b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := fe.ActiveCount(1); got != 1 {
		t.Fatalf("active = %d after un-drain", got)
	}
	if err := fe.Drain(2, b.srv.URL); !errors.Is(err, router.ErrUnknownBackend) {
		t.Fatalf("drain of unknown backend: %v", err)
	}
	if err := fe.Remove(1, b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := fe.Remove(1, b.srv.URL); !errors.Is(err, router.ErrUnknownBackend) {
		t.Fatalf("second remove: %v", err)
	}
	if len(fe.Pool(1)) != 0 {
		t.Fatal("pool not empty after remove")
	}
}

func TestFrontEndRemoveRefusesInFlight(t *testing.T) {
	fe, err := New()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == rpc.PathExecute {
			<-release
		}
		rpc.WriteJSON(w, http.StatusOK, rpc.ExecuteResponse{Server: "slow"})
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(release) })
	if err := fe.Register(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fe.Handler())
	t.Cleanup(front.Close)
	client := rpc.NewClient(front.URL)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = client.Offload(context.Background(), rpc.OffloadRequest{
			UserID: 1, Group: 1, BatteryLevel: 1, State: tasks.State{Task: "sieve", Size: 1},
		})
	}()
	// Wait for the request to be in flight on the backend.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := fe.Inflight(1, slow.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if err := fe.Drain(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	if err := fe.Remove(1, slow.URL); !errors.Is(err, router.ErrBackendBusy) {
		t.Fatalf("remove with in-flight work: %v", err)
	}
	release <- struct{}{}
	<-done
	if n, err := fe.Inflight(1, slow.URL); err != nil || n != 0 {
		t.Fatalf("inflight = %d, %v", n, err)
	}
	if err := fe.Remove(1, slow.URL); err != nil {
		t.Fatal(err)
	}
}

// TestFrontEndPoolMutationUnderLoad hammers the front-end from many
// client goroutines while backends are concurrently added, drained, and
// removed. Invariants: no request ever errors (in-flight work survives
// every mutation, and at least one active backend exists throughout),
// and once a drained backend quiesces it never receives another
// request.
func TestFrontEndPoolMutationUnderLoad(t *testing.T) {
	fe, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const group = 1
	stable := newCountingBackend(t, "stable") // never removed
	victim := newCountingBackend(t, "victim") // drained mid-load
	late := newCountingBackend(t, "late")     // added mid-load
	if err := fe.Register(group, stable.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := fe.Register(group, victim.srv.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fe.Handler())
	t.Cleanup(front.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var clientErrs atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	const clients = 8
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := rpc.NewClient(front.URL)
			r := sim.NewRNG(int64(c)).Stream("pool-load")
			for i := 0; ctx.Err() == nil; i++ {
				st, err := tasks.Sieve{}.Generate(r, 1)
				if err != nil {
					clientErrs.Add(1)
					return
				}
				_, err = client.Offload(ctx, rpc.OffloadRequest{
					UserID: c*1000 + i, Group: group, BatteryLevel: 1, State: st,
				})
				if err != nil && ctx.Err() == nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					clientErrs.Add(1)
					return
				}
				sent.Add(1)
			}
		}()
	}

	// Let load build, then mutate the pool while it flows.
	waitSent := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for sent.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("load generator stalled at %d requests", sent.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSent(50)
	if err := fe.Register(group, late.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitSent(100)
	if err := fe.Drain(group, victim.srv.URL); err != nil {
		t.Fatal(err)
	}
	// Quiesce: wait for the victim's in-flight count to reach zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := fe.Inflight(group, victim.srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never quiesced (%d in flight)", n)
		}
		time.Sleep(time.Millisecond)
	}
	quiesced := victim.hits.Load()
	waitSent(sent.Load() + 100) // plenty of traffic after the quiesce point
	if got := victim.hits.Load(); got != quiesced {
		t.Fatalf("drained backend served %d new requests after quiescing", got-quiesced)
	}
	if err := fe.Remove(group, victim.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitSent(sent.Load() + 50)
	cancel()
	wg.Wait()

	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("%d client errors during pool mutation", n)
	}
	if late.hits.Load() == 0 {
		t.Fatal("late backend never received traffic")
	}
	if stable.hits.Load() == 0 {
		t.Fatal("stable backend never received traffic")
	}
	if got := fmt.Sprint(fe.Backends()); got != fmt.Sprint(map[int]int{group: 2}) {
		t.Fatalf("final backends = %s", got)
	}
}
