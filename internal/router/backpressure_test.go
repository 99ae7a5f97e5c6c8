package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/serve"
	"accelcloud/internal/tasks"
)

// blockingBackend serves /execute but holds every request until
// release is closed — the tool for pinning a backend's admission queue
// at capacity.
func blockingBackend(t *testing.T, release <-chan struct{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"server":"slow","result":{"task":"minimax"}}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func fastBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"server":"fast","result":{"task":"minimax"}}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func pickQueue(t *testing.T, r *Router, group int, url string) *serve.Queue {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p, err := r.Pick(group)
		if err != nil {
			t.Fatal(err)
		}
		q := p.Queue()
		u := p.URL()
		r.Release(p, true)
		if u == url {
			return q
		}
	}
	t.Fatalf("never picked %s", url)
	return nil
}

// TestBackpressureFence is the serving-layer fence: a backend whose
// admission queue is pinned at capacity (limit + depth all blocked) is
// never picked, picks land on the unsaturated peer, and once the
// backlog drains the parked backend rejoins rotation. Run under -race
// this also exercises the Saturated gauge reads against concurrent
// Submit/dispatch traffic.
func TestBackpressureFence(t *testing.T) {
	release := make(chan struct{})
	slow := blockingBackend(t, release)
	// Registered after the server's Close, so it runs before it: a
	// failed assertion must not leave Close waiting on held requests.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	fast := fastBackend(t)

	r := New(nil)
	if err := r.SetServeConfig(serve.Config{Limit: 1, Depth: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, fast.URL); err != nil {
		t.Fatal(err)
	}

	// Pin the slow backend's queue: 1 executing + 2 queued.
	q := pickQueue(t, r, 1, slow.URL)
	if q == nil {
		t.Fatal("no admission queue on picked backend")
	}
	req := rpc.ExecuteRequest{State: tasks.State{Task: "minimax", Size: 1}}
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = q.Submit(context.Background(), req)
		}()
	}
	// Both conditions below come true whatever the scheduling; the ceiling
	// only turns a product bug into a message instead of the package timeout.
	waitFor := func(cond func() bool) {
		for start := time.Now(); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Since(start) > time.Minute {
				t.Fatalf("queue never saturated: queued=%d executing=%d", q.Queued(), q.Executing())
			}
		}
	}
	// One job first, until the dispatcher holds it and is parked in the
	// backend: three at once can beat a freshly started dispatcher to
	// the depth-2 buffer, the third is refused, and the queue then reads
	// queued=1 executing=1 for ever.
	submit()
	waitFor(func() bool { return q.Executing() == 1 })
	submit()
	submit()
	waitFor(q.Saturated)

	// The fence: concurrent pickers must all steer to the fast backend.
	var pickers sync.WaitGroup
	for w := 0; w < 4; w++ {
		pickers.Add(1)
		go func() {
			defer pickers.Done()
			for i := 0; i < 200; i++ {
				p, err := r.Pick(1)
				if err != nil {
					t.Errorf("pick %d: %v", i, err)
					return
				}
				if p.URL() == slow.URL {
					t.Errorf("pick %d landed on the saturated backend", i)
				}
				r.Release(p, true)
			}
		}()
	}
	pickers.Wait()

	// /stats must surface the pressure while it exists.
	var slowInfo *BackendInfo
	for _, bi := range r.Pool(1) {
		if bi.URL == slow.URL {
			b := bi
			slowInfo = &b
		}
	}
	if slowInfo == nil {
		t.Fatal("saturated backend missing from pool info")
	}
	if slowInfo.Queued != 2 || slowInfo.ConcurrencyLimit != 1 {
		t.Fatalf("pool info = %+v, want queued 2 limit 1", slowInfo)
	}

	// Drain and verify the backend rejoins rotation.
	unblock()
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p, err := r.Pick(1)
		if err != nil {
			t.Fatal(err)
		}
		u := p.URL()
		r.Release(p, true)
		if u == slow.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drained backend never rejoined rotation")
		}
	}
}

// TestPickAllSaturated proves the terminal case: when every active
// backend backpressures, Pick surfaces ErrGroupSaturated carrying the
// typed serve.ErrQueueFull marker, so the front-end's 503 is
// classifiable client-side.
func TestPickAllSaturated(t *testing.T) {
	release := make(chan struct{})
	slow := blockingBackend(t, release)

	r := New(nil)
	if err := r.SetServeConfig(serve.Config{Limit: 1, Depth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	q := pickQueue(t, r, 1, slow.URL)
	req := rpc.ExecuteRequest{State: tasks.State{Task: "minimax", Size: 1}}
	var wg sync.WaitGroup
	// Teardown order matters: release the blocked handler first, then
	// wait for the submits, then (the blockingBackend cleanup) close
	// the server. Cleanups run LIFO.
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { close(release) })
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = q.Submit(context.Background(), req)
		}()
	}
	// Both conditions come true whatever the scheduling; the ceiling
	// only turns a product bug into a message instead of the package
	// timeout.
	waitFor := func(cond func() bool) {
		for start := time.Now(); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Since(start) > time.Minute {
				t.Fatalf("queue never saturated: queued=%d executing=%d", q.Queued(), q.Executing())
			}
		}
	}
	// One job first, until the dispatcher holds it: two at once can
	// both reach the depth-1 buffer before the dispatcher takes the
	// first, the second is refused, and the queue then reads queued=0
	// executing=1 for ever.
	submit()
	waitFor(func() bool { return q.Executing() == 1 })
	submit()
	waitFor(q.Saturated)
	_, err := r.Pick(1)
	if !errors.Is(err, ErrGroupSaturated) {
		t.Fatalf("Pick = %v, want ErrGroupSaturated", err)
	}
	if !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("saturation error lost the queue-full marker: %v", err)
	}
}
