package wire

import (
	"bytes"
	"context"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

// Every test of the package runs with poisoned frames: a payload kept
// past its release reads 0xdb, not bytes that merely survived.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}

// serveExecute starts a Server with one Execute handler and returns a
// client connected to it; cleanup closes both.
func serveExecute(t *testing.T, h func(context.Context, ExecuteRequest) ExecuteResponse) *Client {
	t.Helper()
	srv := &Server{H: Handlers{Execute: h}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	client := NewClient(lis.Addr().String())
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
	})
	return client
}

func execute(t *testing.T, c *Client, st tasks.State) ExecuteResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := c.Execute(ctx, time.Time{}, ExecuteRequest{State: st})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeExecuteResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStashedPayloadSeesPoison: the server's inbound buffers are live.
// A handler given a long state keeps its State.Data uncopied, and a
// copy. Later calls carry shorter data at the same offset, so once the
// long frame's buffer comes back for a later frame, the stashed slice
// holds that frame's bytes followed by the poison its release wrote —
// while the copy still reads the original. A later handler looks at the
// stash only when its own State.Data starts where the stash does: the
// buffer then travelled release → pool → this frame's read → this
// handler, so the look is ordered after every write to it. A pool may
// drop what it is given (the race detector's drops a quarter of it), so
// a stash whose buffer does not come back soon is replaced by a new one.
func TestStashedPayloadSeesPoison(t *testing.T) {
	testkit.NoLeak(t)
	long := bytes.Repeat([]byte{0x11}, 64)
	short := bytes.Repeat([]byte{0x22}, 16)
	var (
		mu      sync.Mutex
		stash   []byte
		copied  []byte
		checked bool
		fault   string
	)
	client := serveExecute(t, func(_ context.Context, req ExecuteRequest) ExecuteResponse {
		mu.Lock()
		defer mu.Unlock()
		data := req.State.Data
		switch {
		case checked:
		case len(data) == len(long):
			stash, copied = data, bytes.Clone(data)
		case unsafe.SliceData(data) == unsafe.SliceData(stash):
			checked = true
			switch {
			case !bytes.Equal(stash[:len(data)], data):
				fault = "the stash does not read the later frame's bytes"
			case !bytes.Equal(stash[len(data):], bytes.Repeat([]byte{0xdb}, len(stash)-len(data))):
				fault = "the released tail of the buffer is not poisoned"
			case !bytes.Equal(copied, long):
				fault = "the handler's copy changed"
			}
		}
		return ExecuteResponse{Server: "s"}
	})
	isChecked := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return checked
	}
	for stashes := 0; stashes < 200 && !isChecked(); stashes++ {
		execute(t, client, tasks.State{Task: "stash", Size: 1, Data: long})
		for i := 0; i < 50 && !isChecked(); i++ {
			execute(t, client, tasks.State{Task: "stash", Size: 1, Data: short})
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !checked {
		t.Fatal("no stashed buffer ever came back for a later frame: inbound frames are not pooled")
	}
	if fault != "" {
		t.Fatal(fault)
	}
}

// TestServedPayloadIsNotAllocated is the steady-state guard: a request
// frame served by a Server costs nothing for its inbound payload. A
// 16 KiB request answered with a small response allocates once per
// round trip, the client's fresh response payload (twice, and 16 kB,
// while the server allocated every payload).
func TestServedPayloadIsNotAllocated(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	client := serveExecute(t, func(context.Context, ExecuteRequest) ExecuteResponse {
		return ExecuteResponse{Server: "s"}
	})
	st := tasks.State{Task: "inbound", Size: 1, Data: bytes.Repeat([]byte{7}, 16<<10)}
	ctx := context.Background()
	call := func() {
		if _, err := client.Execute(ctx, time.Time{}, ExecuteRequest{State: st}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(2000, call); n > 1 {
		t.Errorf("an Execute round trip allocates %.2f, budget 1 (the response payload)", n)
	}
	var before, after runtime.MemStats
	const runs = 500
	runtime.ReadMemStats(&before)
	for range runs {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256 {
		t.Errorf("an Execute round trip with a %d-byte state allocates %d bytes", len(st.Data), per)
	}
}

// TestOverCapFrameServedNotKept: a request past maxScratch is read
// chunk by chunk like any other and served intact, and release never
// pools a buffer that large.
func TestOverCapFrameServedNotKept(t *testing.T) {
	testkit.NoLeak(t)
	want := make([]byte, maxScratch+maxScratch/2)
	for i := range want {
		want[i] = byte(i * 31)
	}
	client := serveExecute(t, func(_ context.Context, req ExecuteRequest) ExecuteResponse {
		if !bytes.Equal(req.State.Data, want) {
			return ExecuteResponse{Error: "over-cap state arrived changed"}
		}
		return ExecuteResponse{Server: "s"}
	})
	for range 3 {
		if resp := execute(t, client, tasks.State{Task: "big", Size: 1, Data: want}); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}

	big := &scratch{b: make([]byte, 0, maxScratch+1)}
	big.release()
	// A Put is taken back by the next Get on the same P, so a pooled
	// buffer would come straight back here.
	if got := getScratch(); got == big || cap(got.b) > maxScratch {
		t.Fatalf("release pooled a %d-byte buffer, cap is %d", cap(got.b), maxScratch)
	}
}
