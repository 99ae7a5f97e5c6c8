package dalvik

import (
	"bytes"
	"context"
	"net"
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
// an in-process surrogate, both ends counted. What is left is the two
// inbound payloads and the task's own JSON state and result.
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
	if n := testing.AllocsPerRun(2000, execute); n > 12 {
		t.Errorf("rpc.Client.Execute over bin:// allocates %.1f per call, budget 12", n)
	}
}
