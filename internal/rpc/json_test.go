package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"accelcloud/internal/tasks"
)

// writeCountingConn counts the Write calls a transport makes on it.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestJSONRequestIsOneWrite pins the single-segment request: headers
// and a small body leave in one socket write, because the body is a
// reader net/http knows to be in memory. A body it does not recognise
// makes the transport flush the headers first, two writes a request.
func TestJSONRequestIsOneWrite(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req OffloadRequest
		if err := ReadJSON(r, &req); err != nil {
			WriteJSON(w, http.StatusBadRequest, OffloadResponse{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, OffloadResponse{Server: "s", Group: req.Group})
	}))
	defer srv.Close()
	var writes atomic.Int64
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return writeCountingConn{Conn: nc, writes: &writes}, nil
	}}
	defer tr.CloseIdleConnections()
	c := NewClient(srv.URL, WithHTTPClient(&http.Client{Transport: tr}))
	const calls = 10
	for i := 0; i < calls; i++ {
		req := OffloadRequest{UserID: i, Group: 1, BatteryLevel: 0.5, State: tasks.State{Task: "sieve", Size: 10}}
		if _, err := c.Offload(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if n := writes.Load(); n != calls {
		t.Fatalf("%d JSON requests took %d socket writes, want one each", calls, n)
	}
}

// bodyRecorder serves every POST by recording its raw body, then hands
// the call number (1-based) to answer.
type bodyRecorder struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (b *bodyRecorder) server(t *testing.T, answer func(w http.ResponseWriter, call int)) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		b.mu.Lock()
		b.bodies = append(b.bodies, body)
		call := len(b.bodies)
		b.mu.Unlock()
		answer(w, call)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// wait returns the first n recorded bodies once they have arrived.
func (b *bodyRecorder) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got := b.bodies
		b.mu.Unlock()
		if len(got) >= n {
			return got[:n]
		}
		if time.Now().After(deadline) {
			t.Fatalf("server recorded %d bodies, want %d", len(got), n)
		}
	}
}

// checkSameEncoderOutput fails unless every body is byte-identical and
// equal to the encoder's rendering of what they decode to — trailing
// newline included.
func checkSameEncoderOutput(t *testing.T, bodies [][]byte) {
	t.Helper()
	var req OffloadRequest
	if err := json.Unmarshal(bodies[0], &req); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(req); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("body %d = %q, want %q", i, body, want.Bytes())
		}
	}
}

// TestReplayedBodiesAreIdentical: a POST retried after a 5xx, and a
// hedged POST racing a hung primary, re-send the bytes the first
// attempt sent.
func TestReplayedBodiesAreIdentical(t *testing.T) {
	req := OffloadRequest{UserID: 3, Group: 1, BatteryLevel: 0.5,
		State: tasks.State{Task: "sieve", Size: 10, Data: json.RawMessage(`{"limit":97}`)}}
	ctx := context.Background()

	t.Run("retry", func(t *testing.T) {
		var rec bodyRecorder
		srv := rec.server(t, func(w http.ResponseWriter, call int) {
			if call <= 2 {
				WriteJSON(w, http.StatusBadGateway, OffloadResponse{Error: "injected"})
				return
			}
			WriteJSON(w, http.StatusOK, OffloadResponse{Server: "ok"})
		})
		c := NewClient(srv.URL, WithRetry(NewRetryPolicy(3, time.Millisecond, 5*time.Millisecond, 1)))
		if _, err := c.Offload(ctx, req); err != nil {
			t.Fatal(err)
		}
		checkSameEncoderOutput(t, rec.wait(t, 3))
	})

	t.Run("hedge", func(t *testing.T) {
		var rec bodyRecorder
		block := make(chan struct{})
		srv := rec.server(t, func(w http.ResponseWriter, call int) {
			if call == 1 {
				<-block
				return
			}
			WriteJSON(w, http.StatusOK, OffloadResponse{Server: "hedged"})
		})
		// LIFO: unblock the hung primary before srv.Close waits on it.
		defer close(block)
		c := NewClient(srv.URL, WithHedge(&HedgePolicy{Delay: 20 * time.Millisecond}), WithTimeout(5*time.Second))
		resp, err := c.Offload(ctx, req)
		if err != nil || resp.Server != "hedged" {
			t.Fatalf("hedged offload: %+v, %v", resp, err)
		}
		checkSameEncoderOutput(t, rec.wait(t, 2))
	})
}

// jsonOfSize renders {"server":"aaa…"} padded to exactly n bytes.
func jsonOfSize(n int) []byte {
	const open, closing = `{"server":"`, `"}`
	return []byte(open + strings.Repeat("a", n-len(open)-len(closing)) + closing)
}

// TestOversizedResponseIsAnError: a response body one byte over the
// bound is rejected as too large, not cut short into a syntax error.
func TestOversizedResponseIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(jsonOfSize(maxBodyBytes + 1))
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).Execute(context.Background(), ExecuteRequest{})
	if err == nil || !strings.Contains(err.Error(), "rpc: decode response") || !errors.Is(err, errBodyTooLarge) {
		t.Fatalf("body of maxBodyBytes+1: want a too-large decode error, got %v", err)
	}
}

// TestDecodeBodyBound: the bound holds however a reader splits the
// body — whole, in halves, or with the last bytes and io.EOF in one Read
// as a Content-Length body ends.
func TestDecodeBodyBound(t *testing.T) {
	readers := map[string]func(io.Reader) io.Reader{
		"plain":    func(r io.Reader) io.Reader { return r },
		"half":     iotest.HalfReader,
		"data+EOF": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
			var out ExecuteResponse
			err := decodeBody(wrap(bytes.NewReader(jsonOfSize(size))), &out)
			if size > maxBodyBytes && !errors.Is(err, errBodyTooLarge) {
				t.Errorf("%s, %d bytes: want errBodyTooLarge, got %v", name, size, err)
			}
			if size <= maxBodyBytes && (err != nil || len(out.Server) != size-len(`{"server":""}`)) {
				t.Errorf("%s, %d bytes: %d-byte server, %v", name, size, len(out.Server), err)
			}
		}
	}
}

// TestReadJSONAllocationBounded: a request that declares the largest
// body ReadJSON accepts, sends ten bytes and closes must not make the
// reader allocate the declared size — the JSON twin of
// wire.TestReadFrameAllocationBounded. The budget covers the whole
// exchange, connection setup on both ends included.
func TestReadJSONAllocationBounded(t *testing.T) {
	errs := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteRequest
		errs <- ReadJSON(r, &req)
	}))
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nc, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(nc, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n0123456789", PathExecute, maxBodyBytes)
	_ = nc.Close()
	if err != nil {
		t.Fatal(err)
	}
	readErr := <-errs
	runtime.ReadMemStats(&after)
	if readErr == nil {
		t.Fatal("a body cut short after ten bytes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("reading a %d-byte lie backed by 10 real bytes allocated %d bytes", maxBodyBytes, grew)
	}
}

// TestDecodedJSONDataSurvivesLaterCalls is the aliasing proof behind
// "JSON bodies are read into pooled buffers": the State.Data a handler
// kept from ReadJSON and the Result.Data a caller kept from Execute must
// stay byte-identical while 1 000 further calls recycle the buffers
// they were read from.
func TestDecodedJSONDataSurvivesLaterCalls(t *testing.T) {
	var (
		mu        sync.Mutex
		keptState json.RawMessage
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteRequest
		if err := ReadJSON(r, &req); err != nil {
			WriteJSON(w, http.StatusBadRequest, ExecuteResponse{Error: err.Error()})
			return
		}
		mu.Lock()
		if keptState == nil {
			keptState = req.State.Data
		}
		mu.Unlock()
		WriteJSON(w, http.StatusOK, ExecuteResponse{Result: tasks.Result{Task: req.State.Task, Data: req.State.Data}})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()
	probe := json.RawMessage(`{"probe":[3,1,4,1,5,9,2,6,5,3,5,8,9,7,9]}`)
	first, err := c.Execute(ctx, ExecuteRequest{State: tasks.State{Task: "echo", Data: probe}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Result.Data, probe) {
		t.Fatalf("echo answered %s", first.Result.Data)
	}
	for i := 0; i < 1000; i++ {
		// Fillers around the probe's length overwrite the same offsets.
		filler := json.RawMessage(`{"filler":"` + strings.Repeat("x", 20+i%24) + `"}`)
		if _, err := c.Execute(ctx, ExecuteRequest{State: tasks.State{Task: "echo", Data: filler}}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Result.Data, probe) {
		t.Fatal("the Result.Data a caller kept changed under later calls")
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(keptState, probe) {
		t.Fatal("the State.Data a handler kept changed under later calls")
	}
}
