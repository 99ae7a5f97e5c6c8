package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

// Every test below starts with testkit.NoLeak: once its servers and
// clients are closed, the goroutine count must be back where it began
// — connection loops, read loops and dispatch workers included.

// startEchoServer serves an Offload handler that echoes each call's
// state data back (after a small random delay, so stream completion
// order scrambles relative to issue order) — the fixture the
// multiplexing tests use to prove streams never swap payloads.
func startEchoServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	srv = &Server{H: Handlers{
		Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
			time.Sleep(time.Duration(rand.IntN(2000)) * time.Microsecond)
			return OffloadResponse{
				Result: tasks.Result{Task: req.State.Task, Data: append([]byte(nil), req.State.Data...)},
				Group:  req.Group,
			}, 200
		},
	}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	return lis.Addr().String(), srv
}

// TestMuxConcurrentStreamsNeverInterleave is the -race multiplexing
// proof: many goroutines pipeline calls over ONE connection, each call
// carrying a unique payload, and every response must come back on the
// stream that asked for it with the payload intact.
func TestMuxConcurrentStreamsNeverInterleave(t *testing.T) {
	testkit.NoLeak(t)
	addr, _ := startEchoServer(t)
	client := NewClient(addr)
	defer client.Close()

	const goroutines = 8
	const callsEach = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*callsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				data := make([]byte, 16+rand.IntN(512))
				binary.LittleEndian.PutUint64(data, uint64(g))
				binary.LittleEndian.PutUint64(data[8:], uint64(i))
				for j := 16; j < len(data); j++ {
					data[j] = byte(g*31 + i + j)
				}
				req := OffloadRequest{
					UserID: g, Group: g*1000 + i, BatteryLevel: 0.5,
					State: tasks.State{Task: fmt.Sprintf("echo-%d-%d", g, i), Data: data},
				}
				payload := AppendOffloadRequest(nil, req)
				f, err := client.Call(context.Background(), FrameRequest, MethodOffload, payload)
				if err != nil {
					errs <- fmt.Errorf("call %d/%d: %w", g, i, err)
					return
				}
				resp, err := DecodeOffloadResponse(f.Payload)
				if err != nil {
					errs <- fmt.Errorf("decode %d/%d: %w", g, i, err)
					return
				}
				if resp.Result.Task != req.State.Task || !bytes.Equal(resp.Result.Data, data) || resp.Group != req.Group {
					errs <- fmt.Errorf("stream %d/%d answered with another call's payload: task=%q group=%d",
						g, i, resp.Result.Task, resp.Group)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerRejectsGarbage proves an undecodable byte stream gets a
// stream-0 error frame and a dropped connection, never a hang or a
// panic.
func TestServerRejectsGarbage(t *testing.T) {
	testkit.NoLeak(t)
	addr, _ := startEchoServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A framed lie: valid length prefix, garbage header.
	if _, err := nc.Write([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	conn := NewConn(nc, 0)
	defer conn.Close()
	// The server reports on stream 0, which no Call waits on; observe
	// the teardown instead: the next call must fail with ErrClosed.
	_, err = conn.Call(context.Background(), FrameRequest, MethodPing, nil)
	if err == nil {
		t.Fatal("ping succeeded on a poisoned connection")
	}
}

// TestServerRejectsOversizedFrame proves the declared-length cap
// applies server-side.
func TestServerRejectsOversizedFrame(t *testing.T) {
	testkit.NoLeak(t)
	srv := &Server{MaxFrame: 1024, H: Handlers{
		Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
			return OffloadResponse{}, 200
		},
	}}
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
	defer nc.Close()
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], 1<<20)
	if _, err := nc.Write(prefix[:n]); err != nil {
		t.Fatal(err)
	}
	// The server must answer with a FrameError and close; read it raw.
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	total := 0
	for {
		k, err := nc.Read(buf[total:])
		total += k
		if err != nil {
			break
		}
	}
	f, _, err := DecodeFrame(buf[:total], 0)
	if err != nil {
		t.Fatalf("server's rejection frame undecodable: %v", err)
	}
	if f.Type != FrameError || f.StreamID != 0 {
		t.Fatalf("want stream-0 error frame, got type=%d stream=%d", f.Type, f.StreamID)
	}
	e, err := DecodeErrorFrame(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != 400 {
		t.Fatalf("want 400-equivalent code, got %d", e.Code)
	}
}

// TestClientRedialsAfterServerRestart proves the persistent client
// survives a peer restart: the broken connection fails pending calls
// (retryably) and the next call dials fresh.
func TestClientRedialsAfterServerRestart(t *testing.T) {
	testkit.NoLeak(t)
	srv := &Server{H: Handlers{}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go func() { _ = srv.Serve(lis) }()

	client := NewClient(addr)
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	_ = srv.Close()

	// The dropped connection surfaces as ErrClosed (or a failed dial
	// while the port is dark) — retryable territory, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err == nil {
		t.Fatal("ping succeeded against a closed server")
	}

	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := &Server{H: Handlers{}}
	go func() { _ = srv2.Serve(lis2) }()
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := client.Ping(context.Background())
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCallContextCancellation proves an abandoned stream neither hangs
// the caller nor poisons the connection for other streams.
func TestCallContextCancellation(t *testing.T) {
	testkit.NoLeak(t)
	block := make(chan struct{})
	srv := &Server{H: Handlers{
		Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
			if req.State.Task == "block" {
				select {
				case <-block:
				case <-ctx.Done():
				}
			}
			return OffloadResponse{}, 200
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
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	payload := AppendOffloadRequest(nil, OffloadRequest{State: tasks.State{Task: "block"}})
	if _, err := client.Call(ctx, FrameRequest, MethodOffload, payload); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	close(block)
	// The connection itself stays healthy for other streams.
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("connection poisoned by abandoned stream: %v", err)
	}
}
