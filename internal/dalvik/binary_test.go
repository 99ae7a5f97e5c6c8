package dalvik

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

// serveBinary boots s on a loopback framed-protocol listener and
// returns a client for it; cleanup closes the server.
func serveBinary(t *testing.T, s *Surrogate) *rpc.Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := s.ServeBinary(lis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return rpc.NewClient(rpc.BinaryScheme + lis.Addr().String())
}

// dial serves s over transport ("bin" or "http") and returns a client
// for it; cleanup closes both ends.
func dial(t *testing.T, transport string, s *Surrogate) *rpc.Client {
	t.Helper()
	if transport == "bin" {
		return serveBinary(t, s)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	hc := &http.Client{Transport: &http.Transport{}} // one connection, closed with the test
	t.Cleanup(hc.CloseIdleConnections)
	return rpc.NewClient(srv.URL, rpc.WithHTTPClient(hc))
}

// TestServeBinary drives the surrogate over bin:// — probe, execution,
// a failure travelling inside the response, a batch in call order —
// and proves Close leaves no goroutine behind: accept loop, connection
// loop, dispatch workers and the client's read loop all end.
func TestServeBinary(t *testing.T) {
	testkit.NoLeak(t)
	s := newLoaded(t)
	c := serveBinary(t, s)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := tasks.Quicksort{}.Generate(sim.NewRNG(1).Stream("gen"), 64)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Execute(ctx, rpc.ExecuteRequest{State: st})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != s.Name() || resp.Result.Task != want.Task || resp.Result.Ops != want.Ops ||
		!bytes.Equal(resp.Result.Data, want.Data) {
		t.Fatalf("bin:// execution differs from the direct one:\n got %+v\nwant %+v", resp.Result, want)
	}
	if _, err := c.Execute(ctx, rpc.ExecuteRequest{State: tasks.State{Task: "ghost"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("unknown task: want the surrogate's error inside the response, got %v", err)
	}
	reqs := make([]rpc.ExecuteRequest, 6)
	for i := range reqs {
		reqs[i].State = tasks.State{Task: "fibonacci", Size: i + 1, Data: []byte(`{"n":` + string(rune('1'+i)) + `}`)}
	}
	resps, err := c.ExecuteBatch(ctx, reqs)
	if err != nil || len(resps) != len(reqs) {
		t.Fatalf("batch: %d results, %v", len(resps), err)
	}
	for i, r := range resps {
		direct, _, err := s.Execute(reqs[i].State)
		if err != nil || r.Error != "" || !bytes.Equal(r.Result.Data, direct.Data) {
			t.Fatalf("batch member %d: %+v (direct %+v, %v)", i, r, direct, err)
		}
	}
}

// TestBinaryExecuteAllocationBudget: one Client.Execute round trip to
// an in-process surrogate, both ends counted. What is left is the
// client's inbound response payload and the task's own state and
// result; the server reads the request into a pooled buffer (4 while it
// allocated each one).
func TestBinaryExecuteAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	c := serveBinary(t, newLoaded(t))
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	execute := func() {
		if _, err := c.Execute(ctx, rpc.ExecuteRequest{State: st}); err != nil {
			t.Fatal(err)
		}
	}
	execute()
	if n := testing.AllocsPerRun(2000, execute); n > 3 {
		t.Errorf("rpc.Client.Execute over bin:// allocates %.1f per call, budget 3", n)
	}
}

// TestBinaryExecuteBatchAllocationBudget: one Client.ExecuteBatch of
// eight states — one request frame and one response frame — to an
// in-process surrogate, both ends counted (21 while the server
// allocated the request frame).
func TestBinaryExecuteBatchAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	c := serveBinary(t, newLoaded(t))
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]rpc.ExecuteRequest, 8)
	for i := range reqs {
		reqs[i].State = st
	}
	ctx := context.Background()
	batch := func() {
		resps, err := c.ExecuteBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			if r.Error != "" {
				t.Fatal(r.Error)
			}
		}
	}
	batch()
	if n := testing.AllocsPerRun(500, batch); n > 20 {
		t.Errorf("rpc.Client.ExecuteBatch of 8 over bin:// allocates %.1f per batch, budget 20", n)
	}
}

// TestBatchMemberFailuresStayInPlace: over either transport, each
// member of one batch fails alone, in its own result — an unknown
// task, a panicking task, and (with every slot taken) a busy
// surrogate — while its batchmates succeed.
func TestBatchMemberFailuresStayInPlace(t *testing.T) {
	testkit.NoLeak(t)
	valid, err := tasks.Sieve{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"bin", "http"} {
		t.Run(transport, func(t *testing.T) {
			s := newLoaded(t)
			if err := s.Push(brokenTask{}); err != nil {
				t.Fatal(err)
			}
			c := dial(t, transport, s)
			ctx := context.Background()
			reqs := []rpc.ExecuteRequest{{State: valid}, {State: tasks.State{Task: "ghost"}}, {State: tasks.State{Task: "broken"}}, {State: valid}}
			resps, err := c.ExecuteBatch(ctx, reqs)
			if err != nil || len(resps) != len(reqs) {
				t.Fatalf("batch: %d results, %v", len(resps), err)
			}
			for i, want := range []string{"", "unknown task", "panicked", ""} {
				r := resps[i]
				if r.Server != s.Name() || (want == "") != (r.Error == "") || !strings.Contains(r.Error, want) {
					t.Fatalf("member %d: want error %q, got %+v", i, want, r)
				}
			}
			if st := s.Stats(); st.Executed != 2 || st.Failed != 2 {
				t.Fatalf("after the mixed batch: %+v", st)
			}

			for range cap(s.slots) {
				s.slots <- struct{}{}
			}
			resps, err = c.ExecuteBatch(ctx, reqs[:1:1])
			for range cap(s.slots) {
				<-s.slots
			}
			if err != nil || len(resps) != 1 || !strings.Contains(resps[0].Error, "slots busy") {
				t.Fatalf("batch on a busy surrogate: %+v, %v", resps, err)
			}
			if st := s.Stats(); st.Rejected != 1 {
				t.Fatalf("after the busy batch: %+v", st)
			}
		})
	}
}

// brokenTask panics on every execution, as a bundle with a bug would.
type brokenTask struct{ tasks.Fibonacci }

func (brokenTask) Name() string { return "broken" }

func (brokenTask) Execute(tasks.State) (tasks.Result, error) {
	var board []int
	return tasks.Result{Ops: int64(board[0])}, nil
}

// TestHostileStateDoesNotKillSurrogate: states whose numbers used to
// wrap a length check or size an impossible allocation, and a task that
// panics outright, each come back as an error response over bin:// and
// over HTTP; the slot is released, the failure counted, and the next
// request on the same connection succeeds.
func TestHostileStateDoesNotKillSurrogate(t *testing.T) {
	testkit.NoLeak(t)
	hostile := []tasks.State{
		{Task: "matmul", Data: []byte(`{"n":4294967296,"a":[],"b":[]}`)},
		{Task: "sieve", Data: []byte(`{"limit":4611686018427387904}`)},
		{Task: "knapsack", Data: []byte(`{"capacity":4611686018427387904,"weights":[],"values":[]}`)},
		{Task: "broken"},
	}
	valid, err := tasks.Sieve{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"bin", "http"} {
		t.Run(transport, func(t *testing.T) {
			s, err := NewSurrogate("dalvik-x86-test", 1) // one slot: a leaked one fails the next call
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PushPool(tasks.DefaultPool()); err != nil {
				t.Fatal(err)
			}
			if err := s.Push(brokenTask{}); err != nil {
				t.Fatal(err)
			}
			c := dial(t, transport, s)
			ctx := context.Background()
			for i, st := range hostile {
				resp, err := c.Execute(ctx, rpc.ExecuteRequest{State: st})
				if err == nil || resp.Error == "" || resp.Server != s.Name() {
					t.Fatalf("%s %s: want the surrogate's error inside the response, got %+v, %v", st.Task, st.Data, resp, err)
				}
				if st.Task == "broken" && !strings.Contains(resp.Error, "panicked") {
					t.Fatalf("panic not reported as one: %q", resp.Error)
				}
				if got := s.Stats().Failed; got != int64(i+1) {
					t.Fatalf("after %s: failed = %d, want %d", st.Task, got, i+1)
				}
				if _, err := c.Execute(ctx, rpc.ExecuteRequest{State: valid}); err != nil {
					t.Fatalf("valid request after hostile %s: %v", st.Task, err)
				}
			}
		})
	}
}
