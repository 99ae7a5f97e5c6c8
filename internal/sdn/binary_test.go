package sdn

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
	"accelcloud/internal/wire"
	"accelcloud/internal/workers"
)

// binaryCluster boots one front-end over surrogates, every hop on the
// framed protocol: bin:// backends, a bin:// front door. Cleanup closes
// every server, which also ends the read loops of the clients dialled
// to them (rpc.Client has no Close of its own).
func binaryCluster(t *testing.T, surrogates int, opts ...Option) (*FrontEnd, *rpc.Client, []*dalvik.Surrogate) {
	t.Helper()
	fe, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	listen := func() net.Listener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return lis
	}
	var surs []*dalvik.Surrogate
	for i := 0; i < surrogates; i++ {
		sur, err := dalvik.NewSurrogate("surrogate-"+string(rune('a'+i)), 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := sur.PushPool(tasks.DefaultPool()); err != nil {
			t.Fatal(err)
		}
		lis := listen()
		srv, err := sur.ServeBinary(lis)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		url := rpc.BinaryScheme + lis.Addr().String()
		if err := fe.Register(1, url); err != nil {
			t.Fatal(err)
		}
		// Evicting stops the backend's admission queue, if it has one.
		t.Cleanup(func() { _ = fe.Evict(1, url) })
		surs = append(surs, sur)
	}
	lis := listen()
	srv, err := fe.ServeBinary(lis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return fe, rpc.NewClient(rpc.BinaryScheme + lis.Addr().String()), surs
}

// sortState is a small state whose result bytes (a checksum, the first
// and last element) differ from seed to seed.
func sortState(t *testing.T, seed int64, size int) tasks.State {
	t.Helper()
	st, err := tasks.Quicksort{}.Generate(sim.NewRNG(seed).Stream("gen"), size)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeBinary drives the front-end over bin:// on both hops —
// single calls, a batch frame fanned out per call, a routing failure as
// a typed status — through a queueing, batching front-end, and proves
// that closing the servers leaves no goroutine behind.
func TestServeBinary(t *testing.T) {
	testkit.NoLeak(t)
	_, client, surs := binaryCluster(t, 2, WithQueue(2, 64), WithBatching(4, 0))
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st := sortState(t, 1, 64)
	want, _, err := surs[0].Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resp, err := client.Offload(ctx, rpc.OffloadRequest{UserID: i, Group: 1, BatteryLevel: 0.5, State: st})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Group != 1 || !bytes.Equal(resp.Result.Data, want.Data) || resp.Result.Ops != want.Ops {
			t.Fatalf("offload %d answered %+v, want %+v", i, resp.Result, want)
		}
	}
	calls := make([]rpc.OffloadRequest, 16)
	for i := range calls {
		calls[i] = rpc.OffloadRequest{UserID: i, Group: 1 + i%2, BatteryLevel: 0.5, State: st}
	}
	results, err := client.OffloadBatch(ctx, calls)
	if err != nil || len(results) != len(calls) {
		t.Fatalf("batch: %d results, %v", len(results), err)
	}
	for i, r := range results {
		// Group 2 has no backend: its members fail alone, in place.
		if i%2 == 1 {
			if r.Code != http.StatusServiceUnavailable {
				t.Fatalf("member %d for the empty group: code %d", i, r.Code)
			}
		} else if r.Code != http.StatusOK || !bytes.Equal(r.Resp.Result.Data, want.Data) {
			t.Fatalf("member %d: %+v", i, r)
		}
	}
	_, err = client.Offload(ctx, rpc.OffloadRequest{UserID: 1, Group: 2, BatteryLevel: 0.5, State: st})
	var se *rpc.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty group: want a 503 status error, got %v", err)
	}
}

// TestDecodedDataSurvivesLaterCalls is the aliasing proof behind "a
// client's inbound frames are not pooled": a decoded Result.Data — the
// slice a caller kept, and the copy the idempotency cache kept — aliases
// the response frame it arrived in, so 10 000 further calls on the same
// connections (which recycle, and poison, the servers' pooled request
// frames) must leave both byte-identical.
func TestDecodedDataSurvivesLaterCalls(t *testing.T) {
	_, client, surs := binaryCluster(t, 1)
	ctx := context.Background()
	keyed := rpc.OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 0.5, IdemKey: "kept", State: sortState(t, 1, 48)}
	first, err := client.Offload(ctx, keyed)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first.Result.Data)
	if len(want) == 0 {
		t.Fatal("the probe task returned no data to alias")
	}
	fillers := make([]tasks.State, 16)
	for i := range fillers {
		fillers[i] = sortState(t, int64(2+i), 32+2*i)
	}
	for i := 0; i < 10000; i++ {
		st := fillers[i%len(fillers)]
		if _, err := client.Offload(ctx, rpc.OffloadRequest{UserID: 2, Group: 1, BatteryLevel: 0.5, State: st}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Result.Data, want) {
		t.Fatal("the Result.Data a caller kept changed under later calls")
	}
	executed := surs[0].Stats().Executed
	replay, err := client.Offload(ctx, keyed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Result.Data, want) {
		t.Fatal("the idempotency cache replayed different bytes than the original response")
	}
	if now := surs[0].Stats().Executed; now != executed {
		t.Fatalf("the replay executed the task again (%d -> %d)", executed, now)
	}
}

// countingSurrogate is a bin:// back end that counts what crosses its
// connections — execute-batch frames, single executes, response frames
// written, and executions per member (a member is named by its state's
// Size) — and can cut every connection it has accepted.
type countingSurrogate struct {
	batches, singles, frames atomic.Int64

	mu    sync.Mutex
	ran   map[int]int
	conns []net.Conn

	// While hold is set, every call parks until its connection is cut,
	// after announcing itself on entered.
	hold    atomic.Bool
	entered chan struct{}
}

func (s *countingSurrogate) run(ctx context.Context, call wire.ExecuteRequest) wire.ExecuteResponse {
	if s.hold.Load() {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return wire.ExecuteResponse{}
	}
	// A member of a batch whose connection was cut can start after hold
	// is cleared; its answer can no longer arrive, so it is not a run.
	if ctx.Err() != nil {
		return wire.ExecuteResponse{}
	}
	s.mu.Lock()
	s.ran[call.State.Size]++
	s.mu.Unlock()
	return wire.ExecuteResponse{Result: tasks.Result{Task: call.State.Task, Ops: int64(call.State.Size)}, Server: "counting"}
}

// executions reports how many times member ran.
func (s *countingSurrogate) executions(member int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ran[member]
}

// cut closes the surrogate's side of every connection accepted so far.
func (s *countingSurrogate) cut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		_ = nc.Close()
	}
	s.conns = nil
}

// countingListener records the connections it accepts, so the
// surrogate can cut them, and hands the server ones that count its
// writes: the wire server writes each frame with one Write call.
type countingListener struct {
	net.Listener
	s *countingSurrogate
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.s.mu.Lock()
	l.s.conns = append(l.s.conns, nc)
	l.s.mu.Unlock()
	return frameCountingConn{Conn: nc, frames: &l.s.frames}, nil
}

type frameCountingConn struct {
	net.Conn
	frames *atomic.Int64
}

// Write counts the frame before sending it, so the count is complete by
// the time the peer has the frame.
func (c frameCountingConn) Write(b []byte) (int, error) {
	c.frames.Add(1)
	return c.Conn.Write(b)
}

// TestQueuedBatchIsOneFrameEachWay: behind a batching admission queue,
// every multi-job dispatch crosses the bin:// back hop as exactly one
// execute-batch frame and one response frame, and every member runs
// exactly once. A transport failure under a batch — the connection cut
// mid-batch — fails the whole batch, as it always did over HTTP: each
// member gets exactly one 502 and, since failures are not cached, its
// keyed retry executes it.
func TestQueuedBatchIsOneFrameEachWay(t *testing.T) {
	testkit.NoLeak(t)
	fe, err := New(WithQueue(1, 64), WithBatching(8, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sur := &countingSurrogate{ran: map[int]int{}, entered: make(chan struct{}, 1)}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{H: wire.Handlers{
		Execute: func(ctx context.Context, call wire.ExecuteRequest) wire.ExecuteResponse {
			sur.singles.Add(1)
			return sur.run(ctx, call)
		},
		ExecuteBatch: func(ctx context.Context, calls []wire.ExecuteRequest, out []wire.ExecuteResponse) {
			sur.batches.Add(1)
			workers.Each(len(calls), func(i int) { out[i] = sur.run(ctx, calls[i]) })
		},
	}}
	go func() { _ = srv.Serve(countingListener{Listener: lis, s: sur}) }()
	t.Cleanup(func() { _ = srv.Close() })
	url := rpc.BinaryScheme + lis.Addr().String()
	if err := fe.Register(1, url); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Evict(1, url) })
	picked, err := fe.rt.Pick(1)
	if err != nil {
		t.Fatal(err)
	}
	q := picked.Queue()
	fe.rt.Release(picked, true)

	ctx := context.Background()
	offload := func(member int, keyed bool) (rpc.OffloadResponse, int) {
		req := rpc.OffloadRequest{UserID: member, Group: 1, BatteryLevel: 0.5, State: tasks.State{Task: "fibonacci", Size: member}}
		if keyed {
			req.IdemKey = "member-" + strconv.Itoa(member)
		}
		return fe.Offload(ctx, req)
	}
	// burst offloads members first..first+n-1 at once and returns their
	// status codes, failing on any answer that belongs to another member.
	burst := func(first, n int, keyed bool) []int {
		codes := make([]int, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, code := offload(first+i, keyed)
				if code == http.StatusOK && resp.Result.Ops != int64(first+i) {
					t.Errorf("member %d answered with member %d's result", first+i, resp.Result.Ops)
				}
				codes[i] = code
			}()
		}
		wg.Wait()
		return codes
	}
	const n = 48
	for i, code := range burst(0, n, false) {
		if code != http.StatusOK {
			t.Fatalf("member %d: status %d", i, code)
		}
	}
	if q.Batches() == 0 {
		t.Fatal("the burst never batched; the test proved nothing")
	}
	if b, s, f := sur.batches.Load(), sur.singles.Load(), sur.frames.Load(); b != q.Batches() || s != n-q.Coalesced() || f != b+s {
		t.Fatalf("%d dispatches (%d batches of %d jobs) crossed as %d batch frames, %d single executes and %d response frames",
			q.Batches()+n-q.Coalesced(), q.Batches(), q.Coalesced(), b, s, f)
	}
	for i := range n {
		if got := sur.executions(i); got != 1 {
			t.Fatalf("member %d executed %d times", i, got)
		}
	}

	// Cut the connection under every dispatch until each member has
	// its answer.
	const killed = 8
	batchesBefore := sur.batches.Load()
	sur.hold.Store(true)
	codes := make(chan []int, 1)
	go func() { codes <- burst(100, killed, true) }()
	var got []int
	for got == nil {
		select {
		case <-sur.entered:
			sur.cut()
		case got = <-codes:
		case <-time.After(time.Minute):
			t.Fatal("a member never answered after its connection was cut")
		}
	}
	sur.hold.Store(false)
	for i, code := range got {
		if code != http.StatusBadGateway {
			t.Fatalf("member %d under a cut connection: status %d, want 502", 100+i, code)
		}
	}
	if sur.batches.Load() == batchesBefore {
		t.Fatal("no batch was in flight when the connection was cut")
	}
	for i := range killed {
		if resp, code := offload(100+i, true); code != http.StatusOK {
			t.Fatalf("keyed retry of member %d: status %d (%s)", 100+i, code, resp.Error)
		}
		if got := sur.executions(100 + i); got != 1 {
			t.Fatalf("member %d executed %d times across the cut and its retry", 100+i, got)
		}
	}
}

// TestBinaryOffloadAllocationBudget: FrontEnd.Offload called in
// process, one bin:// hop to an in-process surrogate, both ends counted.
// The surrogate reads the request into a pooled buffer (4 while it
// allocated each one).
func TestBinaryOffloadAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	fe, _, _ := binaryCluster(t, 1)
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := rpc.OffloadRequest{UserID: 7, Group: 1, BatteryLevel: 0.5, State: st}
	offload := func() {
		if resp, code := fe.Offload(ctx, req); code != http.StatusOK {
			t.Fatal(resp.Error)
		}
	}
	offload()
	if n := testing.AllocsPerRun(2000, offload); n > 3 {
		t.Errorf("FrontEnd.Offload to a bin:// backend allocates %.1f per call, budget 3", n)
	}
}
