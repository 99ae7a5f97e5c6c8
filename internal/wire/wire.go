// Package wire implements the binary framed RPC protocol of the
// offload path: length-prefixed frames over persistent multiplexed TCP
// connections, replacing one JSON-over-HTTP round trip per call with
// pipelined per-stream frames and batched call chains (DESIGN.md §8).
//
// # Frame layout
//
//	uvarint(frameLen) | version(1B) | type(1B) | flags(1B) | uvarint(streamID) | payload
//
// frameLen counts everything after the length prefix (header bytes and
// payload). The header is varint-framed: fixed one-byte version, type,
// and flags followed by a uvarint stream id, so small stream ids cost
// one byte and the header never needs padding. Within a connection the
// client allocates stream ids; a response frame carries the id of the
// request it answers, which is what lets one connection interleave any
// number of in-flight calls without head-of-line blocking on slow ones.
//
// # Frame kinds
//
//	FrameRequest  — one call; flags bits 0-1 select the method
//	                (offload, execute, ping)
//	FrameResponse — the reply to a FrameRequest (empty for ping)
//	FrameBatch    — many calls in one frame; flag bit 0 distinguishes the
//	                request (0) from the response (1) direction, flag
//	                bit 1 selects the batch: offload calls through a
//	                front-end (0) or states executed on a surrogate (1),
//	                so one dynamic batch costs one request frame and one
//	                response frame
//	FrameError    — a protocol- or routing-level failure, carrying an
//	                HTTP-equivalent status code so the JSON compat mode
//	                and the binary mode classify errors identically
//
// The decoder is strict: unknown versions, types, or flag bits are
// rejected, declared lengths are capped before any allocation happens,
// and payloads are sub-sliced rather than copied, so adversarial input
// can neither panic the decoder nor make it over-allocate — properties
// the conformance suite locks in with golden vectors and go-fuzz
// corpora (wire/testdata).
package wire

import "errors"

// Version1 is the only protocol version this codec speaks. Unknown
// versions are rejected at decode time.
const Version1 = 1

// Frame types.
const (
	// FrameRequest carries one encoded call (method selected by flags).
	FrameRequest = 1
	// FrameResponse answers a FrameRequest on the same stream id.
	FrameResponse = 2
	// FrameBatch carries a chain of offload calls (or their responses)
	// executed server-side in one round trip.
	FrameBatch = 3
	// FrameError reports a failure with an HTTP-equivalent status code.
	FrameError = 4
)

// Request-frame flags: bits 0-1 select the method.
const (
	// MethodOffload routes an OffloadRequest through the front-end.
	MethodOffload = 0
	// MethodExecute runs an ExecuteRequest directly on a surrogate.
	MethodExecute = 1
	// MethodPing is the liveness probe (empty payload, empty response).
	MethodPing = 2

	// methodMask extracts the method bits from request-frame flags.
	methodMask = 0x03
)

// Batch-frame flags.
const (
	// FlagBatchResponse marks a FrameBatch that carries responses rather
	// than calls (server→client direction).
	FlagBatchResponse = 0x01
	// FlagBatchExecute marks a FrameBatch that carries surrogate
	// executions (ExecuteBatchRequest / ExecuteBatchResponse) rather
	// than offload calls.
	FlagBatchExecute = 0x02
)

// DefaultMaxFrame bounds a frame's declared length: the HTTP compat
// mode's 8 MiB body limit, doubled so a full batch of maximum-size
// calls still fits in one frame.
const DefaultMaxFrame = 16 << 20

// MaxBatchCalls bounds the calls in one batch frame; longer chains must
// be split, keeping a single frame's fan-out (and the memory one
// malicious frame can pin) bounded.
const MaxBatchCalls = 1024

// Decode errors. ErrFrameTooLarge and ErrShortFrame are distinct so a
// stream reader can tell "wait for more bytes" from "protocol
// violation".
var (
	// ErrShortFrame means the buffer ends before the declared frame does.
	ErrShortFrame = errors.New("wire: short frame")
	// ErrFrameTooLarge means the declared length exceeds the decoder's cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
	// ErrBadFrame means a malformed header or payload: unknown version,
	// type, or flag bits, or a payload that does not parse.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrClosed is returned by calls on a closed or broken connection.
	ErrClosed = errors.New("wire: connection closed")
)
