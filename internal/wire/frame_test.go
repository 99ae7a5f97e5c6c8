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

// dirtyBuf is the reused read buffer of the differential checks. It is
// refilled with garbage before every read, so a reader that trusted
// bytes already in its buffer would diverge from a fresh read.
var dirtyBuf []byte

// readDirty reads one frame from br into dirtyBuf, refilled with
// garbage first, and keeps whatever the read grew for the next call.
func readDirty(br *bufio.Reader, max int) (Frame, error) {
	junk := dirtyBuf[:cap(dirtyBuf)]
	for i := range junk {
		junk[i] = byte(0xa5 ^ i)
	}
	f, err := ReadFrame(br, max, dirtyBuf)
	if f.Payload != nil {
		dirtyBuf = f.Payload[:0]
	}
	return f, err
}

// sameRead fails t unless a read into a dirty reused buffer and a fresh
// read of b agree exactly: the same frame, the same error.
func sameRead(t *testing.T, b []byte, max int) {
	t.Helper()
	want, werr := ReadFrame(bufio.NewReader(bytes.NewReader(b)), max, nil)
	got, err := readDirty(bufio.NewReader(bytes.NewReader(b)), max)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("dirty-buffer read differs from a fresh read:\n got %+v, %v\nwant %+v, %v", got, err, want, werr)
	}
}

// TestReadFrameMatchesDecodeFrame: a stream of every golden frame reads
// back frame for frame, both fresh and through one reused buffer full of
// garbage, which starts too small and grows along the way.
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
	dirtyBuf = make([]byte, 0, 3)
	reads := map[string]func(*bufio.Reader, int) (Frame, error){
		"fresh": func(br *bufio.Reader, max int) (Frame, error) { return ReadFrame(br, max, nil) },
		"dirty": readDirty,
	}
	for mode, read := range reads {
		br := bufio.NewReader(bytes.NewReader(stream))
		for _, name := range names {
			got, err := read(br, 0)
			if err != nil {
				t.Fatalf("%s %s: ReadFrame: %v", mode, name, err)
			}
			if !reflect.DeepEqual(got, frames[name]) {
				t.Fatalf("%s %s: stream decode mismatch\n got %+v\nwant %+v", mode, name, got, frames[name])
			}
		}
		if _, err := read(br, 0); err != io.EOF {
			t.Fatalf("%s: want clean io.EOF at stream end, got %v", mode, err)
		}
	}
	for _, name := range names {
		full := AppendFrame(nil, frames[name])
		for i := 0; i <= len(full); i++ {
			sameRead(t, full[:i], 0)
		}
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
	if _, err := ReadFrame(br, 1024, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge before body read, got %v", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestReadFrameTruncatedBody(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: FrameRequest, Flags: MethodOffload, StreamID: 1,
		Payload: make([]byte, 1000)})
	br := bufio.NewReader(bytes.NewReader(full[:len(full)/2]))
	if _, err := ReadFrame(br, 0, nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("want ErrShortFrame, got %v", err)
	}
}

func TestReadFrameAllocationBounded(t *testing.T) {
	// A peer declaring a near-cap frame and then stalling must not make
	// the reader pre-allocate the declared size: allocation grows with
	// bytes received (64 KiB chunks), not with the lie — whether the
	// payload is read fresh or into a pooled buffer.
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(DefaultMaxFrame-1))
	lie := func() *bufio.Reader {
		return bufio.NewReader(io.MultiReader(
			bytes.NewReader(prefix[:n]),
			bytes.NewReader(make([]byte, 100)), // 100 real bytes, then EOF
		))
	}
	for _, tc := range []struct {
		name  string
		buf   []byte
		bound uint64
	}{
		{"fresh", nil, 1 << 20},
		// A warm pooled buffer grows by at most one chunk.
		{"pooled", make([]byte, 0, 4<<10), readChunk + 1<<10},
	} {
		r := lie()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ReadFrame(r, 0, tc.buf); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("%s: want ErrShortFrame, got %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.bound {
			t.Fatalf("%s: reader allocated %d bytes for a %d-byte lie backed by 100 real bytes, bound %d",
				tc.name, grew, DefaultMaxFrame-1, tc.bound)
		}
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
