package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden frame vectors")

// goldenFrames is the canonical vector set: one frame per kind plus the
// header edge cases. The committed encodings in testdata/golden_frames.txt
// are the conformance contract — an encoder change that shifts any byte
// fails TestGoldenFrames until the vectors are deliberately regenerated
// with -update.
func goldenFrames() map[string]Frame {
	return map[string]Frame{
		"ping": {Version: Version1, Type: FrameRequest, Flags: MethodPing, StreamID: 1},
		"offload-request": {Version: Version1, Type: FrameRequest, Flags: MethodOffload, StreamID: 2,
			Payload: AppendOffloadRequest(nil, canonicalOffloadRequest())},
		"offload-response": {Version: Version1, Type: FrameResponse, StreamID: 2,
			Payload: AppendOffloadResponse(nil, canonicalOffloadResponse())},
		"execute-request": {Version: Version1, Type: FrameRequest, Flags: MethodExecute, StreamID: 3,
			Payload: AppendExecuteRequest(nil, ExecuteRequest{State: canonicalOffloadRequest().State})},
		"batch-request": {Version: Version1, Type: FrameBatch, StreamID: 4,
			Payload: AppendBatchRequest(nil, BatchRequest{Calls: []OffloadRequest{canonicalOffloadRequest()}})},
		"batch-response": {Version: Version1, Type: FrameBatch, Flags: FlagBatchResponse, StreamID: 4,
			Payload: AppendBatchResponse(nil, BatchResponse{Results: []BatchResult{{Code: 200, Resp: canonicalOffloadResponse()}}})},
		"execute-batch-request": {Version: Version1, Type: FrameBatch, Flags: FlagBatchExecute, StreamID: 6,
			Payload: AppendExecuteBatchRequest(nil, canonicalExecuteBatchRequest())},
		"execute-batch-response": {Version: Version1, Type: FrameBatch, Flags: FlagBatchResponse | FlagBatchExecute, StreamID: 6,
			Payload: AppendExecuteBatchResponse(nil, canonicalExecuteBatchResponse())},
		"error": {Version: Version1, Type: FrameError, StreamID: 5,
			Payload: AppendErrorFrame(nil, ErrorFrame{Code: 503, Message: "router: no backend for group 9"})},
		"wide-stream-id": {Version: Version1, Type: FrameRequest, Flags: MethodPing, StreamID: 1 << 40},
	}
}

const goldenPath = "testdata/golden_frames.txt"

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden vectors (regenerate with -update): %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hexBytes
	}
	return out
}

func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	if *updateGolden {
		names := make([]string, 0, len(frames))
		for name := range frames {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Golden frame vectors: <name> <hex of full encoded frame>.\n")
		b.WriteString("# Regenerate with: go test ./internal/wire/ -run TestGoldenFrames -update\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(AppendFrame(nil, frames[name])))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	if len(golden) != len(frames) {
		t.Fatalf("golden file has %d vectors, test table has %d (regenerate with -update)", len(golden), len(frames))
	}
	for name, f := range frames {
		wantHex, ok := golden[name]
		if !ok {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		enc := AppendFrame(nil, f)
		if got := hex.EncodeToString(enc); got != wantHex {
			t.Errorf("%s: encoding drifted\n got %s\nwant %s", name, got, wantHex)
			continue
		}
		// The committed bytes must also decode back to the source frame.
		dec, n, err := DecodeFrame(enc, 0)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("%s: consumed %d of %d bytes", name, n, len(enc))
		}
		if !reflect.DeepEqual(dec, f) {
			t.Errorf("%s: decode mismatch\n got %+v\nwant %+v", name, dec, f)
		}
	}
}

func TestHeaderStrictness(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodPing, StreamID: 1})
	mutate := func(idx int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[idx] = b
		return out
	}
	// Frame layout here: len | version | type | flags | streamID.
	cases := map[string][]byte{
		"unknown version":        mutate(1, 9),
		"unknown frame type":     mutate(2, 5),
		"zero frame type":        mutate(2, 0),
		"unknown method":         mutate(3, 3),
		"unknown request flags":  mutate(3, 0x80),
		"flags on response":      AppendFrame(nil, Frame{Type: FrameResponse, Flags: 0x01, StreamID: 1}),
		"flags on error":         AppendFrame(nil, Frame{Type: FrameError, Flags: 0x04, StreamID: 1}),
		"unknown batch flags":    AppendFrame(nil, Frame{Type: FrameBatch, Flags: 0x04, StreamID: 1}),
		"empty body":             {0x00},
		"stream id truncated":    {0x04, Version1, FrameRequest, MethodPing, 0x80},
		"length prefix overlong": append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid[1:]...),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b, 0); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodOffload, StreamID: 9,
		Payload: AppendOffloadRequest(nil, canonicalOffloadRequest())})
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeFrame(full[:i], 0); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix %d/%d: want ErrShortFrame, got %v", i, len(full), err)
		}
	}
}

func TestDecodeFrameOversized(t *testing.T) {
	big := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodOffload, StreamID: 1,
		Payload: make([]byte, 4096)})
	if _, _, err := DecodeFrame(big, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// At exactly the cap the frame passes.
	if _, _, err := DecodeFrame(big, len(big)); err != nil {
		t.Fatalf("frame at cap rejected: %v", err)
	}
}

func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	frames := goldenFrames()
	var stream []byte
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		stream = AppendFrame(stream, frames[name])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for _, name := range names {
		got, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", name, err)
		}
		if !reflect.DeepEqual(got, frames[name]) {
			t.Fatalf("%s: stream decode mismatch\n got %+v\nwant %+v", name, got, frames[name])
		}
	}
	if _, err := ReadFrame(br, 0); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameRejectsOversizedBeforeReading(t *testing.T) {
	// The declared length is checked against the cap before any body
	// byte is read: a reader that fails on Read proves the decoder
	// never touched the body.
	declared := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodPing, StreamID: 1,
		Payload: make([]byte, 2048)})
	br := bufio.NewReader(io.MultiReader(
		bytes.NewReader(declared[:2]), // length prefix (2-byte uvarint for this size)
		readerFunc(func([]byte) (int, error) { return 0, errors.New("body read attempted") }),
	))
	if _, err := ReadFrame(br, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge before body read, got %v", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestReadFrameTruncatedBody(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodOffload, StreamID: 1,
		Payload: make([]byte, 1000)})
	br := bufio.NewReader(bytes.NewReader(full[:len(full)/2]))
	if _, err := ReadFrame(br, 0); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("want ErrShortFrame, got %v", err)
	}
}

func TestReadFrameAllocationBounded(t *testing.T) {
	// A peer declaring a near-cap frame and then stalling must not make
	// the reader pre-allocate the declared size: allocation grows with
	// bytes received (64 KiB chunks), not with the lie.
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(DefaultMaxFrame-1))
	r := bufio.NewReader(io.MultiReader(
		bytes.NewReader(prefix[:n]),
		bytes.NewReader(make([]byte, 100)), // 100 real bytes, then EOF
	))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(r, 0); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("want ErrShortFrame, got %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reader allocated %d bytes for a %d-byte lie backed by 100 real bytes", grew, DefaultMaxFrame-1)
	}
}

func TestWriteFrameReusesScratch(t *testing.T) {
	var sink bytes.Buffer
	buf, err := WriteFrame(&sink, nil, Frame{Type: FrameRequest, Flags: MethodPing, StreamID: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := sink.Len()
	buf2, err := WriteFrame(&sink, buf, Frame{Type: FrameRequest, Flags: MethodPing, StreamID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 2*first {
		t.Fatalf("second write emitted %d bytes, want %d", sink.Len()-first, first)
	}
	if cap(buf2) < cap(buf) {
		t.Fatalf("scratch shrank: %d -> %d", cap(buf), cap(buf2))
	}
}
