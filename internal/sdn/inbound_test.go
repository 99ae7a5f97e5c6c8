package sdn

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
	"accelcloud/internal/wire"
)

// poisonFrames is wire's unexported test hook, reached by its linker
// name: while it is set, every inbound frame buffer a wire.Server
// releases is overwritten first, so bytes the front-end kept past the
// request that carried them read as garbage.
//
//go:linkname poisonFrames accelcloud/internal/wire.poisonFrames
var poisonFrames bool

// Every test of the package runs with poisoned frames.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}

// memberData is the state member id carries: its id, then bytes derived
// from it, so a member that arrives with another request's bytes, or
// with poison, cannot pass for itself.
func memberData(id int) []byte {
	b := make([]byte, 48)
	binary.LittleEndian.PutUint64(b, uint64(id))
	for i := 8; i < len(b); i++ {
		b[i] = byte(id>>8 + i*37)
	}
	return b
}

// TestQueuedCancelKeepsItsOwnBytes is the proof that recycling the
// front-end's inbound frames is safe under its admission queue. A job
// the queue holds can outlive the request frame it came in: its caller
// hangs up while it lingers for batchmates, the front-end's Offload
// returns, and the frame's buffer goes back to the pool, to be
// poisoned and refilled by other connections' requests — while a
// dispatcher that already took the job may still be sending it. The
// queue copies what it admits, so every member a bin:// surrogate
// receives must carry exactly the bytes sent for it. Steady callers
// keep buffers recycling on their own connections; cancelling callers
// fire a handful of requests and close their connection a moment
// later, which cancels the front-end's context for all of them.
func TestQueuedCancelKeepsItsOwnBytes(t *testing.T) {
	testkit.NoLeak(t)
	var checked, wrong, cancelledRan atomic.Int64
	check := func(st tasks.State) wire.ExecuteResponse {
		checked.Add(1)
		if st.Size < 0 {
			cancelledRan.Add(1)
		}
		if !bytes.Equal(st.Data, memberData(st.Size)) {
			wrong.Add(1)
			return wire.ExecuteResponse{Error: "state arrived changed"}
		}
		return wire.ExecuteResponse{Result: tasks.Result{Task: st.Task, Ops: int64(st.Size)}, Server: "checking"}
	}
	sur := &wire.Server{H: wire.Handlers{
		Execute: func(_ context.Context, call wire.ExecuteRequest) wire.ExecuteResponse {
			time.Sleep(200 * time.Microsecond)
			return check(call.State)
		},
		// A batch stays in flight a while, so hang-ups land during it.
		ExecuteBatch: func(_ context.Context, calls []wire.ExecuteRequest, out []wire.ExecuteResponse) {
			time.Sleep(2 * time.Millisecond)
			for i := range calls {
				out[i] = check(calls[i].State)
			}
		},
	}}
	listen := func() net.Listener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return lis
	}
	surLis := listen()
	go func() { _ = sur.Serve(surLis) }()
	t.Cleanup(func() { _ = sur.Close() })

	fe, err := New(WithQueue(2, 256), WithBatching(8, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	url := rpc.BinaryScheme + surLis.Addr().String()
	if err := fe.Register(1, url); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Evict(1, url) })
	feLis := listen()
	srv, err := fe.ServeBinary(feLis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	addr := feLis.Addr().String()

	payload := func(id int) []byte {
		return wire.AppendOffloadRequest(nil, wire.OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 0.5,
			State: tasks.State{Task: "checked", Size: id, Data: memberData(id)}})
	}
	var next, answered atomic.Int64
	stop := make(chan struct{})
	var steady sync.WaitGroup
	for g := 0; g < 4; g++ {
		steady.Add(1)
		go func() {
			defer steady.Done()
			c := wire.NewClient(addr)
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int(next.Add(1))
				f, err := c.Call(context.Background(), wire.FrameRequest, wire.MethodOffload, payload(id))
				if err != nil {
					t.Errorf("steady call %d: %v", id, err)
					return
				}
				if f.Type != wire.FrameResponse {
					// A batch rides its lead's context, so a batchmate
					// whose caller hung up fails the batch with a 502.
					if e, err := wire.DecodeErrorFrame(f.Payload); err != nil || e.Code != http.StatusBadGateway {
						t.Errorf("steady call %d failed: %+v, %v", id, e, err)
						return
					}
					continue
				}
				answered.Add(1)
				if resp, err := wire.DecodeOffloadResponse(f.Payload); err != nil || resp.Result.Ops != int64(id) {
					t.Errorf("steady call %d answered %+v, %v", id, resp, err)
					return
				}
			}
		}()
	}

	var cancelled atomic.Int64
	var hangups sync.WaitGroup
	for g := 0; g < 4; g++ {
		hangups.Add(1)
		go func(g int) {
			defer hangups.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 34))
			for round := 0; round < 16; round++ {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				conn := wire.NewConn(nc, 0)
				var calls sync.WaitGroup
				for k := 0; k < 6; k++ {
					calls.Add(1)
					id := -int(next.Add(1))
					cancelled.Add(1)
					go func() {
						defer calls.Done()
						_, _ = conn.Call(context.Background(), wire.FrameRequest, wire.MethodOffload, payload(id))
					}()
				}
				time.Sleep(time.Duration(rng.IntN(3000)) * time.Microsecond)
				_ = conn.Close()
				calls.Wait()
			}
		}(g)
	}
	hangups.Wait()
	close(stop)
	steady.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d members reached the surrogate with bytes that were not theirs", n, checked.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("no steady call was answered")
	}
	if ran, sent := cancelledRan.Load(), cancelled.Load(); ran == sent {
		t.Fatalf("all %d members of hung-up callers ran: no hang-up landed while its job was queued", sent)
	}
}
