package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
	"accelcloud/internal/wire"
)

// serveWire boots a framed-protocol server with the given handlers and
// returns its bin:// URL; cleanup closes it.
func serveWire(t *testing.T, h wire.Handlers) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{H: h}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	return BinaryScheme + lis.Addr().String()
}

// TestIdemKeyFormatAndUniqueness pins the key format the strconv
// builder must keep byte-identical to the fmt.Sprintf("%x-%x") it
// replaced, and proves 64 concurrent callers never share a key.
func TestIdemKeyFormatAndUniqueness(t *testing.T) {
	c := NewClient("http://unused", WithRetry(NewRetryPolicy(2, 0, 0, 1)))
	var req OffloadRequest
	c.stampIdemKey(&req)
	if want := fmt.Sprintf("%x-%x", idemPrefix, idemSeq.Load()); req.IdemKey != want {
		t.Fatalf("key %q, want %q", req.IdemKey, want)
	}
	if !regexp.MustCompile(`^[0-9a-f]{1,16}-[0-9a-f]{1,16}$`).MatchString(req.IdemKey) {
		t.Fatalf("key %q is not <hex>-<hex>", req.IdemKey)
	}
	req.IdemKey = "caller-chosen"
	c.stampIdemKey(&req)
	if req.IdemKey != "caller-chosen" {
		t.Fatal("a caller's own key was overwritten")
	}
	var plain OffloadRequest
	NewClient("http://unused").stampIdemKey(&plain)
	if plain.IdemKey != "" {
		t.Fatal("a client without retry or hedge stamped a key")
	}

	const callers, each = 64, 200
	keys := make([][]string, callers)
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var r OffloadRequest
				c.stampIdemKey(&r)
				keys[g] = append(keys[g], r.IdemKey)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, callers*each)
	for _, ks := range keys {
		for _, k := range ks {
			if seen[k] {
				t.Fatalf("key %q stamped twice", k)
			}
			seen[k] = true
		}
	}
}

// TestBinaryTimeoutIsDeadlineExceeded: over bin:// the per-call timeout
// travels as a value, not as a derived context, and must still read as
// context.DeadlineExceeded, bound a hung backend, and end the retry
// budget — a call that ran out of time is never re-sent.
func TestBinaryTimeoutIsDeadlineExceeded(t *testing.T) {
	testkit.NoLeak(t)
	release := make(chan struct{})
	url := serveWire(t, wire.Handlers{Execute: func(ctx context.Context, _ wire.ExecuteRequest) wire.ExecuteResponse {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return wire.ExecuteResponse{}
	}})
	defer close(release)
	c := NewClient(url, WithTimeout(40*time.Millisecond), WithRetry(NewRetryPolicy(5, time.Millisecond, time.Millisecond, 1)))
	start := time.Now()
	_, err := c.Execute(context.Background(), ExecuteRequest{State: tasks.State{Task: "hang"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("a 40 ms timeout took %v", took)
	}
	if r := c.Stats().Retries; r != 0 {
		t.Fatalf("%d retries after the deadline", r)
	}
	// The caller's own context still ends the wait, with its own error.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	slow := NewClient(url, WithTimeout(30*time.Second))
	if _, err := slow.Execute(ctx, ExecuteRequest{State: tasks.State{Task: "hang"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBinaryHedgedCallHonoursTheDeadline: a hedged bin:// call carries
// the deadline by value like an unhedged one — both lanes end with
// DeadlineExceeded when it passes, and a hedge still wins over a hung
// primary.
func TestBinaryHedgedCallHonoursTheDeadline(t *testing.T) {
	testkit.NoLeak(t)
	release := make(chan struct{})
	var calls atomic.Int64
	url := serveWire(t, wire.Handlers{Execute: func(ctx context.Context, req wire.ExecuteRequest) wire.ExecuteResponse {
		if req.State.Task == "hang" || calls.Add(1) == 1 {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return wire.ExecuteResponse{Server: "s"}
	}})
	defer close(release)
	c := NewClient(url, WithTimeout(60*time.Millisecond), WithHedge(&HedgePolicy{Delay: 5 * time.Millisecond}))
	start := time.Now()
	_, err := c.Execute(context.Background(), ExecuteRequest{State: tasks.State{Task: "hang"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if took := time.Since(start); took < 50*time.Millisecond || took > 2*time.Second {
		t.Fatalf("a 60 ms timeout took %v", took)
	}
	if h := c.Stats().Hedges; h != 1 {
		t.Fatalf("%d hedges launched, want 1", h)
	}
	// First call of the task hangs, the hedge answers.
	fast := NewClient(url, WithTimeout(30*time.Second), WithHedge(&HedgePolicy{Delay: 5 * time.Millisecond}))
	resp, err := fast.Execute(context.Background(), ExecuteRequest{State: tasks.State{Task: "x"}})
	if err != nil || resp.Server != "s" {
		t.Fatalf("hedge did not rescue the call: %+v, %v", resp, err)
	}
	if st := fast.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want one hedge and one win", st)
	}
}

// TestHedgedCallJoinsItsLosingLane: no lane of a hedged call outlives
// it, so the caller may overwrite the request's State.Data as soon as
// the call returns. Each call's primary hangs until its hedge arrives,
// the hedge wins, and the hung primary is then answered with a 502,
// which its retry budget re-sends at once — encoding the request again
// (the re-send, like every later call for the id, is answered at once).
// Had the call returned without joining that lane, the re-send would
// read State.Data while the caller overwrites it: a race the detector
// reports, and a request that reaches the server with the caller's
// new bytes in it.
func TestHedgedCallJoinsItsLosingLane(t *testing.T) {
	testkit.NoLeak(t)
	const calls = 200
	var mu sync.Mutex
	hedgeIn := map[int]chan struct{}{} // per call: closed when its hedge arrives
	var torn atomic.Int64
	url := serveWire(t, wire.Handlers{Offload: func(ctx context.Context, req wire.OffloadRequest) (wire.OffloadResponse, int) {
		if req.State.Data[0] != byte(req.UserID) || req.State.Data[len(req.State.Data)-1] != byte(req.UserID) {
			torn.Add(1)
		}
		mu.Lock()
		arrived, primary := hedgeIn[req.UserID]
		if primary = !primary; primary {
			arrived = make(chan struct{})
			hedgeIn[req.UserID] = arrived
		} else {
			select {
			case <-arrived:
			default:
				close(arrived)
			}
		}
		mu.Unlock()
		if !primary {
			return wire.OffloadResponse{Server: "hedge", Group: req.Group}, http.StatusOK
		}
		select {
		case <-arrived:
		case <-ctx.Done():
		}
		return wire.OffloadResponse{Error: "primary released"}, http.StatusBadGateway
	}})
	c := NewClient(url, WithTimeout(10*time.Second), WithHedge(&HedgePolicy{Delay: time.Millisecond}),
		WithRetry(NewRetryPolicy(3, time.Nanosecond, time.Nanosecond, 1)))
	data := make([]byte, 256)
	for i := 0; i < calls; i++ {
		id := i % 250
		for j := range data {
			data[j] = byte(id)
		}
		resp, err := c.Offload(context.Background(), OffloadRequest{UserID: id, Group: 1, BatteryLevel: 0.5,
			State: tasks.State{Task: "hedged", Data: data}})
		if err != nil || resp.Server != "hedge" {
			t.Fatalf("call %d: %+v, %v", i, resp, err)
		}
		for j := range data {
			data[j] = 0xff // the caller's bytes again, right after the call
		}
		mu.Lock()
		delete(hedgeIn, id)
		mu.Unlock()
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d requests reached the server with bytes the caller wrote after its call returned", n)
	}
	// Every call hedged; some primaries' re-sends ran after their hedge
	// won (the rest were cancelled in time).
	if st := c.Stats(); st.Hedges != calls || st.HedgeWins == 0 || st.Retries == 0 {
		t.Fatalf("stats %+v, want %d hedges, some wins and some re-sends", st, calls)
	}
}

// TestBinaryRetriesStopAtTheDeadline: a backend that keeps failing is
// retried only while the call's deadline allows. The caller gets the
// last attempt's error — the backend's 502, or DeadlineExceeded if the
// deadline caught an attempt in flight — as it did when a derived
// context ended the backoff wait.
func TestBinaryRetriesStopAtTheDeadline(t *testing.T) {
	testkit.NoLeak(t)
	url := serveWire(t, wire.Handlers{Offload: func(context.Context, wire.OffloadRequest) (wire.OffloadResponse, int) {
		return wire.OffloadResponse{Error: "boom"}, http.StatusBadGateway
	}})
	c := NewClient(url, WithTimeout(60*time.Millisecond), WithRetry(NewRetryPolicy(1000, 10*time.Millisecond, 10*time.Millisecond, 1)))
	start := time.Now()
	_, err := c.Offload(context.Background(), OffloadRequest{UserID: 1, Group: 1, State: tasks.State{Task: "x"}})
	var se *StatusError
	if !(errors.As(err, &se) && se.Code == http.StatusBadGateway) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the backend's 502 or DeadlineExceeded, got %v", err)
	}
	if took := time.Since(start); took < 50*time.Millisecond || took > 2*time.Second {
		t.Fatalf("a 60 ms budget of retries took %v", took)
	}
	if r := c.Stats().Retries; r < 1 || r > 12 {
		t.Fatalf("%d retries inside a 60 ms deadline at 5-10 ms backoff", r)
	}
}

// TestSleepHonoursDeadlineAndContext pins the backoff wait that stands
// in for a derived context on the framed path.
func TestSleepHonoursDeadlineAndContext(t *testing.T) {
	bg := context.Background()
	if !sleep(bg, time.Now().Add(time.Minute), time.Millisecond) {
		t.Error("a far deadline cut a 1 ms wait short")
	}
	start := time.Now()
	if sleep(bg, start.Add(20*time.Millisecond), time.Minute) {
		t.Error("a wait longer than the deadline reported time to spare")
	}
	if took := time.Since(start); took < 20*time.Millisecond || took > 5*time.Second {
		t.Errorf("the wait ran %v, want until the 20 ms deadline", took)
	}
	if sleep(bg, time.Now().Add(-time.Second), time.Millisecond) {
		t.Error("a deadline already past reported time to spare")
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if sleep(ctx, time.Now().Add(time.Hour), time.Minute) {
		t.Error("a cancelled context did not end the wait")
	}
}

// TestBinaryDeadConnectionIsErrClosedAndRedials: killing the server
// under a call surfaces wire.ErrClosed, and the same client reaches a
// replacement on the same address.
func TestBinaryDeadConnectionIsErrClosedAndRedials(t *testing.T) {
	testkit.NoLeak(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	srv := &wire.Server{H: wire.Handlers{Execute: func(ctx context.Context, _ wire.ExecuteRequest) wire.ExecuteResponse {
		close(entered)
		<-ctx.Done()
		return wire.ExecuteResponse{}
	}}}
	go func() { _ = srv.Serve(lis) }()
	c := NewClient(BinaryScheme + lis.Addr().String())
	go func() {
		<-entered
		_ = srv.Close()
	}()
	if _, err := c.Execute(context.Background(), ExecuteRequest{State: tasks.State{Task: "x"}}); !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("want wire.ErrClosed, got %v", err)
	}
	lis2, err := net.Listen("tcp", lis.Addr().String())
	if err != nil {
		t.Skipf("could not rebind %s: %v", lis.Addr(), err)
	}
	srv2 := &wire.Server{H: wire.Handlers{Execute: func(context.Context, wire.ExecuteRequest) wire.ExecuteResponse {
		return wire.ExecuteResponse{Server: "second"}
	}}}
	go func() { _ = srv2.Serve(lis2) }()
	defer srv2.Close()
	resp, err := c.Execute(context.Background(), ExecuteRequest{State: tasks.State{Task: "x"}})
	if err != nil || resp.Server != "second" {
		t.Fatalf("redial: %+v, %v", resp, err)
	}
}

// TestBinaryExecuteBatchKeepsCallOrder: a bin:// batch is one
// execute-batch frame — the server's batch handler runs once per
// batch and its single-call handler never — whose members finish in
// any order and come back in call order, with per-member failures
// inside each result.
func TestBinaryExecuteBatchKeepsCallOrder(t *testing.T) {
	testkit.NoLeak(t)
	var batches, singles atomic.Int64
	url := serveWire(t, wire.Handlers{
		Execute: func(context.Context, wire.ExecuteRequest) wire.ExecuteResponse {
			singles.Add(1)
			return wire.ExecuteResponse{}
		},
		ExecuteBatch: func(_ context.Context, calls []wire.ExecuteRequest, out []wire.ExecuteResponse) {
			batches.Add(1)
			var wg sync.WaitGroup
			for i, call := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Later members answer first.
					time.Sleep(time.Duration(len(calls)-call.State.Size) * 100 * time.Microsecond)
					if call.State.Size%7 == 3 {
						out[i] = wire.ExecuteResponse{Error: fmt.Sprintf("member %d failed", call.State.Size)}
						return
					}
					out[i] = wire.ExecuteResponse{Result: tasks.Result{Task: call.State.Task, Ops: int64(call.State.Size)}}
				}()
			}
			wg.Wait()
		},
	})
	c := NewClient(url)
	const rounds = 5
	for round := 0; round < rounds; round++ {
		reqs := make([]ExecuteRequest, 64)
		for i := range reqs {
			reqs[i].State = tasks.State{Task: "echo", Size: i}
		}
		resps, err := c.ExecuteBatch(context.Background(), reqs)
		if err != nil || len(resps) != len(reqs) {
			t.Fatalf("batch: %d results, %v", len(resps), err)
		}
		for i, r := range resps {
			if i%7 == 3 {
				if want := fmt.Sprintf("member %d failed", i); r.Error != want {
					t.Fatalf("member %d: error %q, want %q", i, r.Error, want)
				}
			} else if r.Error != "" || r.Result.Ops != int64(i) {
				t.Fatalf("member %d came back as %+v", i, r)
			}
		}
	}
	if b, s := batches.Load(), singles.Load(); b != rounds || s != 0 {
		t.Fatalf("%d batches served as %d batch frames and %d single executes", rounds, b, s)
	}
}
