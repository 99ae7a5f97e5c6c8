package rpc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelcloud/internal/tasks"
)

// poolBalanced polls the pool counters until every Get taken since the
// baseline has been matched by a Put or Discard, and at least minGets
// were taken. The wait matters: a server handler may still be reading
// a request body (and holding its read buffer) after the client call
// has returned.
func poolBalanced(t *testing.T, baseGets, basePuts, baseDiscards, minGets int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts, discards := PoolCounters()
		dGets, dPuts, dDiscards := gets-baseGets, puts-basePuts, discards-baseDiscards
		if dGets >= minGets && dGets == dPuts+dDiscards {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffer pool unbalanced: %d gets (want >= %d) vs %d puts + %d discards since baseline",
				dGets, minGets, dPuts, dDiscards)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEncodeBufPoolBalanced is the buffer-leak regression test: every
// pooled buffer taken on the JSON path — the client's request encode
// and response read, the server's ReadJSON and WriteJSON — must return
// to the pool, error paths included: a sustained 5xx burst or a dead
// peer must not bleed buffers.
func TestEncodeBufPoolBalanced(t *testing.T) {
	// Every handler reads its request through ReadJSON, so the server's
	// read buffers are walked on each path the client takes.
	readReq := func(r *http.Request) {
		var in OffloadRequest
		if err := ReadJSON(r, &in); err != nil || in.State.Task != "sieve" {
			t.Errorf("handler read %+v, %v", in, err)
		}
	}
	okSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		readReq(r)
		WriteJSON(w, http.StatusOK, OffloadResponse{Server: "s"})
	}))
	defer okSrv.Close()
	errSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		readReq(r)
		WriteJSON(w, http.StatusInternalServerError, OffloadResponse{Error: "boom"})
	}))
	defer errSrv.Close()
	// A server that never answers, for the timeout path. The handler
	// also waits on a test-scoped release channel: a client disconnect
	// is not guaranteed to cancel the request context before teardown,
	// and hungSrv.Close blocks until every handler returns.
	hungDone := make(chan struct{})
	hungSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The client may time out before this read; a cut body still
		// takes and returns a buffer.
		var in OffloadRequest
		_ = ReadJSON(r, &in)
		select {
		case <-r.Context().Done():
		case <-hungDone:
		}
	}))
	defer hungSrv.Close()
	defer close(hungDone)

	baseGets, basePuts, baseDiscards := PoolCounters()
	req := OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 0.5,
		State: tasks.State{Task: "sieve", Size: 10}}

	ctx := context.Background()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		// Success path.
		if _, err := NewClient(okSrv.URL).Offload(ctx, req); err != nil {
			t.Fatalf("ok server errored: %v", err)
		}
		// 5xx path, with retries: every attempt takes its own buffers.
		c := NewClient(errSrv.URL)
		c.Retry = NewRetryPolicy(3, time.Millisecond, 5*time.Millisecond, int64(i))
		if _, err := c.Offload(ctx, req); err == nil {
			t.Fatal("error server succeeded")
		}
		// Connection-refused path.
		if _, err := NewClient("http://127.0.0.1:1").Offload(ctx, req); err == nil {
			t.Fatal("dead address succeeded")
		}
		// Timeout path: the context fires while the client waits for an
		// answer.
		tc := NewClient(hungSrv.URL)
		tc.Timeout = 20 * time.Millisecond
		if _, err := tc.Offload(ctx, req); err == nil {
			t.Fatal("hung server succeeded")
		}
	}
	// Buffers each round is sure to take: ok is four (client encode and
	// read, server read and write), each of the three 5xx attempts three
	// (no client read), refused and timeout one client encode each.
	poolBalanced(t, baseGets, basePuts, baseDiscards, rounds*(4+3*3+1+1))
}

// TestEncodeBufPoolDiscardsOversized proves a huge one-off state
// cannot pin its buffer in the pool forever: over-cap buffers are
// discarded (counted), not recycled.
func TestEncodeBufPoolDiscardsOversized(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, OffloadResponse{})
	}))
	defer srv.Close()
	_, _, baseDiscards := PoolCounters()
	// State.Data is json.RawMessage on the JSON transport, so the
	// over-cap payload must itself be valid JSON.
	big := make([]byte, maxPooledBufBytes+2)
	for i := range big {
		big[i] = 'a'
	}
	big[0], big[len(big)-1] = '"', '"'
	req := OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 0.5,
		State: tasks.State{Task: "blob", Size: 1, Data: big}}
	if _, err := NewClient(srv.URL).Offload(context.Background(), req); err != nil {
		t.Fatalf("offload: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, discards := PoolCounters(); discards > baseDiscards {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("over-cap buffer was not discarded")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBinaryTransportBypassesEncodePool sanity-checks that bin://
// clients do not touch the JSON encode pool on the request path (they
// have their own frame scratch), so pool accounting stays attributable
// to the JSON mode.
func TestBinaryTransportBypassesEncodePool(t *testing.T) {
	c := NewClient(BinaryScheme + "127.0.0.1:1")
	if !c.binary() {
		t.Fatal("bin:// URL not detected as binary")
	}
	baseGets, _, _ := PoolCounters()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _ = c.Offload(ctx, OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 0.5,
		State: tasks.State{Task: "sieve", Size: 10}})
	if gets, _, _ := PoolCounters(); gets != baseGets {
		t.Fatalf("binary post took %d encode buffers", gets-baseGets)
	}
}

// TestBadBinaryAddressRejected locks in the bin:// address validation.
func TestBadBinaryAddressRejected(t *testing.T) {
	for _, url := range []string{BinaryScheme, BinaryScheme + "host:1/path"} {
		c := NewClient(url)
		if _, err := c.wireClient(); err == nil || !strings.Contains(err.Error(), "malformed binary address") {
			t.Errorf("%q: want malformed-address error, got %v", url, err)
		}
	}
}
