package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

// The model test's peer obeys the first payload byte of each frame.
const (
	actEcho    = iota // answer at once with the same payload
	actLate           // cancel the caller, answer only after its Call returned
	actSilence        // never answer: the caller's deadline must fire
	actKill           // drop the connection with calls in flight
)

// scriptedPeer is the far end of one connection in the call-slot model
// test. Every frame is handled on its own goroutine, so a withheld
// answer never stops the peer from reading.
type scriptedPeer struct {
	nc net.Conn
	wm sync.Mutex
	// calls maps a call's token to its caller-side hooks.
	calls *sync.Map
}

type callHooks struct {
	cancel   context.CancelFunc
	returned chan struct{} // closed when the caller's Call has returned
}

func (p *scriptedPeer) serve() {
	br := bufio.NewReader(p.nc)
	for {
		f, err := ReadFrame(br, 0, nil)
		if err != nil {
			return
		}
		go p.handle(f)
	}
}

func (p *scriptedPeer) handle(f Frame) {
	switch f.Payload[0] {
	case actLate:
		h, ok := p.calls.Load(binary.LittleEndian.Uint64(f.Payload[1:]))
		if !ok {
			return // the call already died with a killed connection
		}
		h.(*callHooks).cancel()
		<-h.(*callHooks).returned
	case actSilence:
		return
	case actKill:
		_ = p.nc.Close()
		return
	}
	p.wm.Lock()
	defer p.wm.Unlock()
	_, _ = WriteFrame(p.nc, nil, Frame{Type: FrameResponse, StreamID: f.StreamID, Payload: f.Payload})
}

// TestCallSlotReuseModel drives pooled call slots through every way a
// call can end — answered, cancelled with the answer arriving late,
// timed out, connection killed under it — interleaved at random from
// eight goroutines, connection after connection. Each call carries a
// unique token that the peer echoes: a Call must return its own token
// or an error of the kind its script allows, never another call's
// frame, and the read loop must never stall (every wait is bounded, so
// a stall fails the test instead of hanging it).
func TestCallSlotReuseModel(t *testing.T) {
	testkit.NoLeak(t)
	const (
		rounds  = 12
		callers = 8
		calls   = 150
	)
	var token uint64
	var tokenMu sync.Mutex
	for round := 0; round < rounds; round++ {
		cnc, snc := net.Pipe()
		hooks := &sync.Map{}
		peer := &scriptedPeer{nc: snc, calls: hooks}
		go peer.serve()
		conn := NewConn(cnc, 0)

		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(g)))
				for i := 0; i < calls; i++ {
					act := byte(actEcho)
					switch r := rng.IntN(100); {
					case r < 20:
						act = actLate
					case r < 30:
						act = actSilence
					case r == 30 && round%2 == 1:
						act = actKill
					}
					tokenMu.Lock()
					token++
					tok := token
					tokenMu.Unlock()
					payload := make([]byte, 9, 9+rng.IntN(64))
					payload[0] = act
					binary.LittleEndian.PutUint64(payload[1:], tok)
					payload = payload[:cap(payload)]

					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					h := &callHooks{cancel: cancel, returned: make(chan struct{})}
					hooks.Store(tok, h)
					var deadline time.Time
					if act == actSilence {
						deadline = time.Now().Add(time.Duration(1+rng.IntN(3)) * time.Millisecond)
					}
					f, err := conn.call(ctx, deadline, FrameRequest, MethodOffload, payload)
					close(h.returned)
					cancel()
					hooks.Delete(tok)

					// A call that loses the connection fails with ErrClosed,
					// or with the write error if it was still sending.
					closed := err != nil && conn.Broken()
					switch {
					case err == nil:
						if !bytes.Equal(f.Payload, payload) {
							t.Errorf("round %d: call %d got another call's frame (token %d)",
								round, tok, binary.LittleEndian.Uint64(f.Payload[1:]))
						}
						if act == actSilence || act == actKill {
							t.Errorf("round %d: call %d (action %d) was answered", round, tok, act)
						}
					case closed:
						// Any call may die with the connection.
					case act == actLate && errors.Is(err, context.Canceled):
					case act == actSilence && errors.Is(err, context.DeadlineExceeded):
					default:
						t.Errorf("round %d: call %d (action %d): unexpected error %v", round, tok, act, err)
					}
					if closed {
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if !conn.Broken() {
			// The connection survived the round: its read loop must
			// still route, late answers to abandoned streams and all.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			probe := []byte{actEcho, 0, 0, 0, 0, 0, 0, 0, 0}
			if f, err := conn.Call(ctx, FrameRequest, MethodOffload, probe); err != nil || !bytes.Equal(f.Payload, probe) {
				t.Errorf("round %d: connection unusable after the round: %v", round, err)
			}
			cancel()
		}
		_ = conn.Close()
		_ = snc.Close()
	}
}

// TestSlowHandlerDoesNotDelayOtherStreams: one blocked stream and 63
// live ones share a connection; the 63 finish while the one is still
// blocked, round after round, on reused workers.
func TestSlowHandlerDoesNotDelayOtherStreams(t *testing.T) {
	testkit.NoLeak(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	srv := &Server{H: Handlers{
		Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
			if req.State.Task == "block" {
				close(entered)
				<-release
			}
			return OffloadResponse{Group: req.Group}, 200
		},
	}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	client := NewClient(lis.Addr().String())
	defer client.Close()

	offload := func(task string, group int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f, err := client.Offload(ctx, time.Time{}, OffloadRequest{Group: group, State: tasks.State{Task: task}})
		if err != nil {
			return err
		}
		resp, err := DecodeOffloadResponse(f.Payload)
		if err != nil {
			return err
		}
		if resp.Group != group {
			return errors.New("answered with another stream's response")
		}
		return nil
	}
	blocked := make(chan error, 1)
	go func() { blocked <- offload("block", 0) }()
	<-entered
	for round := 0; round < 20; round++ {
		errs := make(chan error, 63)
		for g := 1; g <= 63; g++ {
			go func(g int) { errs <- offload("quick", g) }(g)
		}
		for g := 1; g <= 63; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: a live stream failed behind the blocked one: %v", round, err)
			}
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("the blocked stream returned early: %v", err)
	default:
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("the blocked stream failed after release: %v", err)
	}
}

// TestInternBounded: the table shares small-vocabulary names; a long
// name, or a miss on a full table, falls back to a fresh string with
// the same contents; and a table filled with junk starts over after
// internRestart, so the real vocabulary is shared again.
func TestInternBounded(t *testing.T) {
	savedTab, savedFull := internTab.Load(), internFull.Load()
	defer func() { internTab.Store(savedTab); internFull.Store(savedFull) }()
	internTab.Store(nil)
	internFull.Store(time.Now().UnixNano()) // no restart during the fill

	a, b := intern([]byte("fibonacci")), intern([]byte("fibonacci"))
	if a != "fibonacci" || b != "fibonacci" {
		t.Fatalf("interned %q, %q", a, b)
	}
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	if got := intern(long); got != string(long) {
		t.Fatal("long name mangled")
	}
	if len(internTable()) != 1 {
		t.Fatalf("table holds %d entries, want only the short name", len(internTable()))
	}
	var key [8]byte
	for i := 0; i < 2*internCap; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		if got := intern(key[:]); got != string(key[:]) {
			t.Fatalf("entry %d mangled", i)
		}
	}
	if n := len(internTable()); n != internCap {
		t.Fatalf("table grew to %d entries, cap is %d", n, internCap)
	}
	if got := intern([]byte("fibonacci")); got != "fibonacci" {
		t.Fatal("an interned name changed after the table filled")
	}
	if got := intern([]byte("late")); got != "late" || len(internTable()) != internCap {
		t.Fatalf("a miss on a full, fresh table: %q, %d entries", got, len(internTable()))
	}

	internFull.Store(time.Now().Add(-2 * internRestart).UnixNano())
	if got := intern([]byte("matmul")); got != "matmul" {
		t.Fatalf("interned %q across a restart", got)
	}
	if tab := internTable(); len(tab) != 1 || tab["matmul"] != "matmul" {
		t.Fatalf("an old full table did not start over: %d entries", len(tab))
	}
	if got := intern([]byte("fibonacci")); got != "fibonacci" || len(internTable()) != 2 {
		t.Fatalf("after the restart: %q, %d entries", got, len(internTable()))
	}
}

// TestBatchSlotsReleaseClears: the server's pooled execute-batch slices
// go back to the pool holding only zero values, over their whole
// capacity, so a parked slice keeps no State or Result — nor the
// inbound payload their Data aliases — reachable. Nothing else in the
// test binary serves while this runs, so no one can take the slots
// back out of the pool before they are inspected.
func TestBatchSlotsReleaseClears(t *testing.T) {
	b := getBatchSlots()
	var err error
	if b.calls, err = decodeExecuteCalls(AppendExecuteBatchRequest(nil, canonicalExecuteBatchRequest()), b.calls); err != nil {
		t.Fatal(err)
	}
	b.out = append(b.out, canonicalExecuteBatchResponse().Results...)
	calls, out := b.calls[:cap(b.calls)], b.out[:cap(b.out)]
	b.release()
	if len(b.calls) != 0 || len(b.out) != 0 {
		t.Fatalf("released slots keep lengths %d and %d", len(b.calls), len(b.out))
	}
	for i, c := range calls {
		if !reflect.DeepEqual(c, ExecuteRequest{}) {
			t.Errorf("released call slot %d holds %+v", i, c)
		}
	}
	for i, r := range out {
		if !reflect.DeepEqual(r, ExecuteResponse{}) {
			t.Errorf("released result slot %d holds %+v", i, r)
		}
	}
}

// TestAllocationBudgets pins the steady-state allocation counts of the
// framed path's building blocks.
func TestAllocationBudgets(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	req := canonicalOffloadRequest()
	req.IdemKey = "" // a key is unique per call, so it is never interned
	resp := canonicalOffloadResponse()
	resp.Span = nil
	encReq := AppendOffloadRequest(nil, req)
	encResp := AppendOffloadResponse(nil, resp)
	encExecReq := AppendExecuteRequest(nil, ExecuteRequest{State: req.State})
	encExecResp := AppendExecuteResponse(nil, ExecuteResponse{Result: resp.Result, CloudMs: 1, Server: resp.Server})
	decoders := map[string]func(){
		"DecodeOffloadRequest":  func() { _, _ = DecodeOffloadRequest(encReq) },
		"DecodeOffloadResponse": func() { _, _ = DecodeOffloadResponse(encResp) },
		"DecodeExecuteRequest":  func() { _, _ = DecodeExecuteRequest(encExecReq) },
		"DecodeExecuteResponse": func() { _, _ = DecodeExecuteResponse(encExecResp) },
	}
	for name, decode := range decoders {
		decode() // first sight of the names interns them
		if n := testing.AllocsPerRun(1000, decode); n != 0 {
			t.Errorf("%s allocates %.1f per message on interned names, want 0", name, n)
		}
	}

	srv := &Server{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, 0)
	defer conn.Close()
	ctx := context.Background()
	ping := func() {
		if _, err := conn.Call(ctx, FrameRequest, MethodPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	ping()
	// Both ends of the round trip run in this process and both count.
	if n := testing.AllocsPerRun(2000, ping); n > 1 {
		t.Errorf("Conn.Call ping allocates %.2f per round trip, budget 1", n)
	}
}
