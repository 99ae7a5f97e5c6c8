package sdn

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

// TestOversizedBodyIsBadRequest: a well-formed JSON body one byte over
// rpc's 8 MiB bound is refused as too large with a 400 — not cut short
// into a syntax error about its prefix.
func TestOversizedBodyIsBadRequest(t *testing.T) {
	fe, err := New()
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fe.Handler())
	defer front.Close()
	const maxBody = 8 << 20
	const open, closing = `{"pad":"`, `"}`
	body := open + strings.Repeat("a", maxBody+1-len(open)-len(closing)) + closing
	resp, err := http.Post(front.URL+rpc.PathOffload, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out rpc.OffloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "body exceeds") {
		t.Fatalf("body of 8 MiB + 1: status %d, error %q", resp.StatusCode, out.Error)
	}
}

// TestDecodedJSONDataSurvivesLaterCalls is the JSON twin of
// TestDecodedDataSurvivesLaterCalls: every hop of a JSON offload reads
// its body into a pooled buffer, so the Result.Data a caller kept and
// the copy the idempotency cache kept must stay byte-identical while
// 1 000 further calls recycle those buffers. Over bin:// only the
// servers' request frames are pooled; the client side stays unpooled.
func TestDecodedJSONDataSurvivesLaterCalls(t *testing.T) {
	front, executes, _ := countingCluster(t, 0)
	client := rpc.NewClient(front.URL)
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
	for i := 0; i < 1000; i++ {
		st := fillers[i%len(fillers)]
		if _, err := client.Offload(ctx, rpc.OffloadRequest{UserID: 2, Group: 1, BatteryLevel: 0.5, State: st}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Result.Data, want) {
		t.Fatal("the Result.Data a caller kept changed under later calls")
	}
	executed := executes.Load()
	replay, err := client.Offload(ctx, keyed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Result.Data, want) {
		t.Fatal("the idempotency cache replayed different bytes than the original response")
	}
	if now := executes.Load(); now != executed {
		t.Fatalf("the replay executed the task again (%d -> %d)", executed, now)
	}
}

// TestJSONOffloadAllocationBudget: rpc.Client.Offload over JSON through
// an in-process front-end to one JSON surrogate — four bodies encoded
// and four read across two HTTP hops, every end counted.
func TestJSONOffloadAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	front, _, _ := countingCluster(t, 0)
	client := rpc.NewClient(front.URL)
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := rpc.OffloadRequest{UserID: 7, Group: 1, BatteryLevel: 0.5, State: st}
	offload := func() {
		if _, err := client.Offload(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	offload()
	if n := testing.AllocsPerRun(1000, offload); n > 245 {
		t.Errorf("rpc.Client.Offload over JSON allocates %.1f per call, budget 245", n)
	}
}
