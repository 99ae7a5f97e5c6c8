package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"accelcloud/internal/tasks"
)

// FuzzDecodeFrame is the decoder-robustness half of the conformance
// contract: for arbitrary bytes the decoder must never panic and never
// allocate past its cap, and anything it does accept must re-encode to
// a frame it decodes identically (decode∘encode = id on the accepted
// set). The stream reader must also return the same frame and error
// reading into a reused buffer full of garbage as reading fresh. The seed corpus under testdata/fuzz/FuzzDecodeFrame holds one
// valid encoding per frame kind plus known-tricky headers; run with
// `go test -fuzz=FuzzDecodeFrame ./internal/wire/` to explore further.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range goldenFrames() {
		f.Add(AppendFrame(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		// The stream reader agrees with itself whatever its buffer held.
		sameRead(t, b, 1<<20)
		fr, n, err := DecodeFrame(b, 1<<20)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Accepted frames must survive a re-encode byte-identically up
		// to re-decode (the encoder always emits minimal varints, so
		// byte equality is only guaranteed after one normalization).
		re := AppendFrame(nil, fr)
		fr2, n2, err := DecodeFrame(re, 1<<20)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if n2 != len(re) || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("decode∘encode not identity:\n got %+v\nwant %+v", fr2, fr)
		}
		// The payload decoders must be panic-free on whatever payload a
		// valid header smuggles in.
		switch fr.Type {
		case FrameRequest:
			switch fr.Flags & methodMask {
			case MethodOffload:
				_, _ = DecodeOffloadRequest(fr.Payload)
			case MethodExecute:
				_, _ = DecodeExecuteRequest(fr.Payload)
			}
		case FrameResponse:
			_, _ = DecodeOffloadResponse(fr.Payload)
			_, _ = DecodeExecuteResponse(fr.Payload)
		case FrameBatch:
			switch fr.Flags {
			case 0:
				_, _ = DecodeBatchRequest(fr.Payload)
			case FlagBatchResponse:
				_, _ = DecodeBatchResponse(fr.Payload)
			case FlagBatchExecute:
				_, _ = DecodeExecuteBatchRequest(fr.Payload)
			case FlagBatchResponse | FlagBatchExecute:
				_, _ = DecodeExecuteBatchResponse(fr.Payload)
			default:
				t.Fatalf("batch flags %#x passed the header check", fr.Flags)
			}
		case FrameError:
			_, _ = DecodeErrorFrame(fr.Payload)
		}
	})
}

// FuzzExecuteBatchRoundTrip: any batch of states, and any batch of
// results, survives encode → frame → decode bit-exactly, through the
// public decoders and through the server's pooled one. Members split
// data between them, so one batch mixes empty and non-empty blobs.
func FuzzExecuteBatchRoundTrip(f *testing.F) {
	f.Add(uint8(2), "fibonacci", 7, []byte(`{"n":1}{"n":2}`), int64(9), 0.5, "s1", "", uint64(1))
	f.Add(uint8(0), "", 0, []byte(nil), int64(0), 0.0, "", "", uint64(0))
	f.Add(uint8(8), "sieve", -40, []byte{1, 2, 3}, int64(-1), math.NaN(), "surrogate-g1-0", "dalvik: boom", uint64(1)<<63)
	f.Add(uint8(255), "üñî", math.MaxInt, bytes.Repeat([]byte{0xab}, 300), int64(math.MinInt64), math.Inf(-1), "\x00", "\xff", uint64(42))
	f.Fuzz(func(t *testing.T, members uint8, task string, size int, data []byte, ops int64, cloudMs float64, server, errMsg string, streamID uint64) {
		n := int(members) % 65
		req := ExecuteBatchRequest{Calls: make([]ExecuteRequest, n)}
		resp := ExecuteBatchResponse{Results: make([]ExecuteResponse, n)}
		for i := range n {
			chunk := data[i*len(data)/n : (i+1)*len(data)/n]
			req.Calls[i].State = tasks.State{Task: task, Size: size ^ i, Data: chunk}
			resp.Results[i] = ExecuteResponse{
				Result:  tasks.Result{Task: task, Data: chunk, Ops: ops - int64(i)},
				CloudMs: cloudMs, Server: server,
			}
			if i%2 == 1 {
				resp.Results[i].Error = errMsg
			}
		}
		payload := func(flags byte, p []byte) []byte {
			frame := AppendFrame(nil, Frame{Type: FrameBatch, Flags: flags, StreamID: streamID, Payload: p})
			fr, used, err := DecodeFrame(frame, 0)
			if err != nil || used != len(frame) {
				t.Fatalf("own frame rejected: %v (consumed %d of %d)", err, used, len(frame))
			}
			if fr.Type != FrameBatch || fr.Flags != flags || fr.StreamID != streamID {
				t.Fatalf("header mangled: %+v", fr)
			}
			return fr.Payload
		}
		// nil and empty are canonically nil after a round trip.
		sameBlob := func(got, sent []byte) bool {
			if len(sent) == 0 {
				return got == nil
			}
			return bytes.Equal(got, sent)
		}

		reqPayload := payload(FlagBatchExecute, AppendExecuteBatchRequest(nil, req))
		gotReq, err := DecodeExecuteBatchRequest(reqPayload)
		if err != nil {
			t.Fatalf("own request rejected: %v", err)
		}
		stale := make([]ExecuteRequest, 3, 3+n%5) // a pooled slice with leftovers
		pooled, err := decodeExecuteCalls(reqPayload, stale)
		if err != nil {
			t.Fatalf("pooled decode rejected own request: %v", err)
		}
		for _, calls := range [][]ExecuteRequest{gotReq.Calls, pooled} {
			if len(calls) != n {
				t.Fatalf("%d calls decoded, %d sent", len(calls), n)
			}
			for i, c := range calls {
				sent := req.Calls[i].State
				if c.State.Task != sent.Task || c.State.Size != sent.Size || !sameBlob(c.State.Data, sent.Data) {
					t.Fatalf("call %d: got %+v, sent %+v", i, c.State, sent)
				}
			}
		}

		gotResp, err := DecodeExecuteBatchResponse(payload(FlagBatchResponse|FlagBatchExecute, AppendExecuteBatchResponse(nil, resp)))
		if err != nil {
			t.Fatalf("own response rejected: %v", err)
		}
		if len(gotResp.Results) != n {
			t.Fatalf("%d results decoded, %d sent", len(gotResp.Results), n)
		}
		for i, r := range gotResp.Results {
			sent := resp.Results[i]
			if r.Result.Task != sent.Result.Task || r.Result.Ops != sent.Result.Ops || !sameBlob(r.Result.Data, sent.Result.Data) ||
				r.Server != sent.Server || r.Error != sent.Error ||
				math.Float64bits(r.CloudMs) != math.Float64bits(sent.CloudMs) {
				t.Fatalf("result %d: got %+v, sent %+v", i, r, sent)
			}
		}
	})
}

// FuzzRoundTrip drives the structured half: any OffloadRequest the
// client could build must survive encode → frame → decode bit-exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(7, 2, 0.75, "k-1", "sieve", 1000, []byte{1, 2, 3}, uint64(1))
	f.Add(0, 0, 0.0, "", "", 0, []byte(nil), uint64(0))
	f.Add(-5, -9, math.Inf(1), "idem", "x", -40, []byte("data"), uint64(1)<<63)
	f.Add(math.MaxInt, math.MinInt, math.NaN(), "\x00\xff", "üñî", math.MaxInt32, bytes.Repeat([]byte{0xab}, 300), uint64(42))
	f.Fuzz(func(t *testing.T, userID, group int, battery float64, idemKey, task string, size int, data []byte, streamID uint64) {
		req := OffloadRequest{
			UserID: userID, Group: group, BatteryLevel: battery, IdemKey: idemKey,
			State: tasks.State{Task: task, Size: size, Data: data},
		}
		frame := AppendFrame(nil, Frame{
			Type: FrameRequest, Flags: MethodOffload, StreamID: streamID,
			Payload: AppendOffloadRequest(nil, req),
		})
		fr, n, err := DecodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		if fr.StreamID != streamID || fr.Type != FrameRequest || fr.Flags != MethodOffload {
			t.Fatalf("header mangled: %+v", fr)
		}
		got, err := DecodeOffloadRequest(fr.Payload)
		if err != nil {
			t.Fatalf("own payload rejected: %v", err)
		}
		if got.UserID != userID || got.Group != group || got.IdemKey != idemKey ||
			got.State.Task != task || got.State.Size != size {
			t.Fatalf("round trip mismatch:\n got %+v\nsent %+v", got, req)
		}
		// Bit-level float equality: NaN payloads must survive too.
		if math.Float64bits(got.BatteryLevel) != math.Float64bits(battery) {
			t.Fatalf("battery bits changed: %x -> %x", math.Float64bits(battery), math.Float64bits(got.BatteryLevel))
		}
		// nil and empty are canonically nil after a round trip.
		if len(data) == 0 {
			if got.State.Data != nil {
				t.Fatalf("empty data decoded non-nil: %#v", got.State.Data)
			}
		} else if !bytes.Equal(got.State.Data, data) {
			t.Fatalf("data changed: %x -> %x", data, got.State.Data)
		}
	})
}
