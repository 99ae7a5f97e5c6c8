package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"accelcloud/internal/tasks"
)

// canonical messages shared by the round-trip and golden-vector tests.
// Float fields use values exact in binary so encodings are stable.
func canonicalOffloadRequest() OffloadRequest {
	return OffloadRequest{
		UserID:       7,
		Group:        2,
		BatteryLevel: 0.75,
		IdemKey:      "k-1",
		Origin:       "eu-north",
		SpanID:       0x2a,
		State:        tasks.State{Task: "sieve", Size: 1000, Data: []byte{0x01, 0x02, 0x03}},
	}
}

func canonicalOffloadResponse() OffloadResponse {
	return OffloadResponse{
		Result:  tasks.Result{Task: "sieve", Data: []byte{0xaa, 0xbb}, Ops: 168},
		Server:  "surrogate-g2-0",
		Group:   2,
		Timings: Timings{RoutingMs: 1.5, BackendMs: 2.25, CloudMs: 0.5},
		Span: &Span{
			ID: 0x2a, QueueMs: 0.25, LingerMs: 0.125, ColdMs: 0,
			NetworkMs: 1.75, ExecMs: 0.5, Hops: 1,
		},
	}
}

func canonicalExecuteBatchRequest() ExecuteBatchRequest {
	return ExecuteBatchRequest{Calls: []ExecuteRequest{
		{State: canonicalOffloadRequest().State},
		{State: tasks.State{Task: "fibonacci", Size: 1, Data: []byte(`{"n":1}`)}},
	}}
}

func canonicalExecuteBatchResponse() ExecuteBatchResponse {
	return ExecuteBatchResponse{Results: []ExecuteResponse{
		{Result: canonicalOffloadResponse().Result, CloudMs: 0.5, Server: "surrogate-g2-0"},
		{Server: "surrogate-g2-0", Error: "dalvik: boom"},
	}}
}

func TestOffloadRequestRoundTrip(t *testing.T) {
	in := canonicalOffloadRequest()
	out, err := DecodeOffloadRequest(AppendOffloadRequest(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestOffloadResponseRoundTrip(t *testing.T) {
	in := canonicalOffloadResponse()
	out, err := DecodeOffloadResponse(AppendOffloadResponse(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestExecuteRoundTrips(t *testing.T) {
	req := ExecuteRequest{State: tasks.State{Task: "matmul", Size: 64, Data: []byte("abc")}}
	gotReq, err := DecodeExecuteRequest(AppendExecuteRequest(nil, req))
	if err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("request mismatch: %+v != %+v", req, gotReq)
	}
	resp := ExecuteResponse{
		Result:  tasks.Result{Task: "matmul", Ops: -3},
		CloudMs: 12.5,
		Server:  "s1",
		Error:   "boom",
	}
	gotResp, err := DecodeExecuteResponse(AppendExecuteResponse(nil, resp))
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("response mismatch: %+v != %+v", resp, gotResp)
	}
}

func TestBatchRoundTrips(t *testing.T) {
	req := BatchRequest{Calls: []OffloadRequest{
		canonicalOffloadRequest(),
		{UserID: 1, Group: 1, BatteryLevel: 0.5, State: tasks.State{Task: "fib", Size: 10}},
	}}
	gotReq, err := DecodeBatchRequest(AppendBatchRequest(nil, req))
	if err != nil {
		t.Fatalf("decode batch request: %v", err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("batch request mismatch:\n in: %+v\nout: %+v", req, gotReq)
	}
	resp := BatchResponse{Results: []BatchResult{
		{Code: 200, Resp: canonicalOffloadResponse()},
		{Code: 502, Resp: OffloadResponse{Error: "dalvik: boom"}},
	}}
	gotResp, err := DecodeBatchResponse(AppendBatchResponse(nil, resp))
	if err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("batch response mismatch:\n in: %+v\nout: %+v", resp, gotResp)
	}
	execReq := canonicalExecuteBatchRequest()
	gotExecReq, err := DecodeExecuteBatchRequest(AppendExecuteBatchRequest(nil, execReq))
	if err != nil || !reflect.DeepEqual(execReq, gotExecReq) {
		t.Fatalf("execute batch request: %v\n in: %+v\nout: %+v", err, execReq, gotExecReq)
	}
	execResp := canonicalExecuteBatchResponse()
	gotExecResp, err := DecodeExecuteBatchResponse(AppendExecuteBatchResponse(nil, execResp))
	if err != nil || !reflect.DeepEqual(execResp, gotExecResp) {
		t.Fatalf("execute batch response: %v\n in: %+v\nout: %+v", err, execResp, gotExecResp)
	}
}

func TestUnsampledResponseRoundTrip(t *testing.T) {
	// The common case: no span. Presence flag costs one byte and the
	// decoded message keeps Span nil (not a zero-valued struct).
	in := canonicalOffloadResponse()
	in.Span = nil
	out, err := DecodeOffloadResponse(AppendOffloadResponse(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Span != nil {
		t.Fatalf("unsampled response decoded with span: %+v", out.Span)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestBadSpanPresenceFlagRejected(t *testing.T) {
	in := canonicalOffloadResponse()
	in.Span = nil
	b := AppendOffloadResponse(nil, in)
	// The presence flag sits right before the trailing Result. Find it
	// by re-encoding up to the flag.
	head := appendString(nil, in.Server)
	head = appendInt(head, in.Group)
	head = appendF64(head, in.Timings.RoutingMs)
	head = appendF64(head, in.Timings.BackendMs)
	head = appendF64(head, in.Timings.CloudMs)
	head = appendString(head, in.Error)
	b[len(head)] = 0x02 // flag must be 0 or 1
	if _, err := DecodeOffloadResponse(b); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad span presence flag accepted: %v", err)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	in := ErrorFrame{Code: 503, Message: "router: no backend for group 9"}
	out, err := DecodeErrorFrame(AppendErrorFrame(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestNegativeIntsRoundTrip(t *testing.T) {
	// The zigzag varint path must survive the full signed range.
	for _, v := range []int{0, -1, 1, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		b := appendInt(nil, v)
		c := &cur{b: b}
		got, err := c.sint()
		if err != nil {
			t.Fatalf("sint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("sint(%d) = %d", v, got)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := AppendOffloadRequest(nil, canonicalOffloadRequest())
	if _, err := DecodeOffloadRequest(append(b, 0x00)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestDecodeRejectsOverlongBlob(t *testing.T) {
	// A blob declaring more bytes than the payload holds must be
	// rejected before any allocation happens.
	b := appendString(nil, "sieve")
	b = appendInt(b, 1)
	// Declared 1 GiB of data, zero bytes present.
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x04)
	c := &cur{b: b}
	if _, err := decodeState(c); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong blob accepted: %v", err)
	}
}

// batchDecoders are the four batch-payload decoders, by name; the
// bounds tests below feed them hostile input.
var batchDecoders = map[string]func([]byte) error{
	"DecodeBatchRequest":         func(b []byte) error { _, err := DecodeBatchRequest(b); return err },
	"DecodeBatchResponse":        func(b []byte) error { _, err := DecodeBatchResponse(b); return err },
	"DecodeExecuteBatchRequest":  func(b []byte) error { _, err := DecodeExecuteBatchRequest(b); return err },
	"DecodeExecuteBatchResponse": func(b []byte) error { _, err := DecodeExecuteBatchResponse(b); return err },
}

// maxRejectBytes bounds what decoding a rejected payload may allocate:
// the error text, and at most a slice for the calls whose bytes are
// actually present. A count taken on trust would allocate tens of KiB.
const maxRejectBytes = 1 << 10

// allocatedBytes reports the heap bytes one call of f allocates,
// averaged over 50 calls.
func allocatedBytes(f func()) uint64 {
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestDecodeTruncatedMessages(t *testing.T) {
	// Every proper prefix of a valid message must fail cleanly with
	// ErrBadFrame, never panic or succeed, and allocate nothing for
	// calls whose bytes are not there.
	for name, tc := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"DecodeOffloadResponse": {AppendOffloadResponse(nil, canonicalOffloadResponse()),
			func(b []byte) error { _, err := DecodeOffloadResponse(b); return err }},
		"DecodeExecuteBatchRequest": {AppendExecuteBatchRequest(nil, canonicalExecuteBatchRequest()),
			batchDecoders["DecodeExecuteBatchRequest"]},
		"DecodeExecuteBatchResponse": {AppendExecuteBatchResponse(nil, canonicalExecuteBatchResponse()),
			batchDecoders["DecodeExecuteBatchResponse"]},
	} {
		enc, decode := tc.enc, tc.decode
		for i := 0; i < len(enc); i++ {
			prefix := enc[:i]
			if err := decode(prefix); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: truncation at %d/%d: want ErrBadFrame, got %v", name, i, len(enc), err)
			}
			if n := allocatedBytes(func() { _ = decode(prefix) }); n > maxRejectBytes {
				t.Errorf("%s: truncation at %d/%d allocated %d B", name, i, len(enc), n)
			}
		}
	}
}

func TestBatchCountCapped(t *testing.T) {
	lies := map[string][]byte{
		"count over MaxBatchCalls": {0x81, 0x10}, // uvarint 2049
		// Within the cap but beyond the bytes present: rejected before
		// the per-call slice is allocated.
		"count over the bytes present": {0xff, 0x07}, // uvarint 1023, no call bytes follow
	}
	for name, decode := range batchDecoders {
		for lie, b := range lies {
			if err := decode(b); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s, %s: want ErrBadFrame, got %v", name, lie, err)
			}
			if n := allocatedBytes(func() { _ = decode(b) }); n > maxRejectBytes {
				t.Errorf("%s, %s: allocated %d B before rejecting", name, lie, n)
			}
		}
	}
}

func TestNilAndEmptyBlobsCanonical(t *testing.T) {
	// nil and empty data encode identically and decode as nil, so
	// round-tripped messages compare equal however they were built.
	withNil := AppendExecuteRequest(nil, ExecuteRequest{State: tasks.State{Task: "t"}})
	withEmpty := AppendExecuteRequest(nil, ExecuteRequest{State: tasks.State{Task: "t", Data: []byte{}}})
	if !bytes.Equal(withNil, withEmpty) {
		t.Fatalf("nil and empty data encode differently: %x vs %x", withNil, withEmpty)
	}
	got, err := DecodeExecuteRequest(withEmpty)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.State.Data != nil {
		t.Fatalf("empty blob decoded non-nil: %#v", got.State.Data)
	}
}
