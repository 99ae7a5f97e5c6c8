package sdn

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"testing"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
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

// TestDecodedDataSurvivesLaterCalls is the aliasing proof behind "inbound
// frame bodies are not pooled": a decoded Result.Data — the slice a
// caller kept, and the copy the idempotency cache kept — aliases the
// frame it arrived in, so 10 000 further calls on the same connections
// (each of which would overwrite a recycled buffer) must leave both
// byte-identical.
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

// TestBinaryOffloadAllocationBudget: FrontEnd.Offload called in
// process, one bin:// hop to an in-process surrogate, both ends counted.
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
	if n := testing.AllocsPerRun(2000, offload); n > 12 {
		t.Errorf("FrontEnd.Offload to a bin:// backend allocates %.1f per call, budget 12", n)
	}
}
