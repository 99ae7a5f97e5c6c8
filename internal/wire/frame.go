package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Frame is one decoded protocol frame.
type Frame struct {
	// Version is the protocol version (Version1).
	Version byte
	// Type is the frame kind (FrameRequest..FrameError).
	Type byte
	// Flags carry the request method or the batch direction and kind; meaning
	// depends on Type (see the package doc).
	Flags byte
	// StreamID multiplexes concurrent calls over one connection: a
	// response frame carries the id of the request it answers.
	StreamID uint64
	// Payload is the encoded message. Decoders sub-slice the input
	// buffer; callers that outlive the buffer must copy.
	Payload []byte
}

// validHeader rejects unknown versions, types, and flag bits — the
// strictness half of the conformance contract: a v1 peer never guesses
// at bits it does not understand.
func validHeader(version, ftype, flags byte) error {
	if version != Version1 {
		return fmt.Errorf("%w: unknown version %d", ErrBadFrame, version)
	}
	switch ftype {
	case FrameRequest:
		if flags&^byte(methodMask) != 0 {
			return fmt.Errorf("%w: unknown request flags %#x", ErrBadFrame, flags)
		}
		if flags&methodMask == 3 {
			return fmt.Errorf("%w: unknown method %d", ErrBadFrame, flags&methodMask)
		}
	case FrameResponse, FrameError:
		if flags != 0 {
			return fmt.Errorf("%w: unexpected flags %#x on frame type %d", ErrBadFrame, flags, ftype)
		}
	case FrameBatch:
		if flags&^byte(FlagBatchResponse|FlagBatchExecute) != 0 {
			return fmt.Errorf("%w: unknown batch flags %#x", ErrBadFrame, flags)
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, ftype)
	}
	return nil
}

// AppendFrame encodes f after dst. The header fields are taken from f
// except Version, which is always written as Version1.
func AppendFrame(dst []byte, f Frame) []byte {
	// Header length: version + type + flags + uvarint(streamID).
	var sid [binary.MaxVarintLen64]byte
	sidLen := binary.PutUvarint(sid[:], f.StreamID)
	dst = binary.AppendUvarint(dst, uint64(3+sidLen+len(f.Payload)))
	dst = append(dst, Version1, f.Type, f.Flags)
	dst = append(dst, sid[:sidLen]...)
	return append(dst, f.Payload...)
}

// maxHeader is the longest frame header: version, type, flags and a
// full-width stream id varint.
const maxHeader = 3 + binary.MaxVarintLen64

// parseHeader decodes the header at the start of a frame body and
// reports how many bytes it occupies; the payload is whatever follows.
func parseHeader(body []byte) (Frame, int, error) {
	if len(body) < 3 {
		return Frame{}, 0, fmt.Errorf("%w: header truncated", ErrBadFrame)
	}
	f := Frame{Version: body[0], Type: body[1], Flags: body[2]}
	if err := validHeader(f.Version, f.Type, f.Flags); err != nil {
		return Frame{}, 0, err
	}
	sid, n := binary.Uvarint(body[3:])
	if n <= 0 {
		return Frame{}, 0, fmt.Errorf("%w: bad stream id", ErrBadFrame)
	}
	f.StreamID = sid
	return f, 3 + n, nil
}

// parseBody decodes the post-length portion of a frame (header +
// payload). The payload is a sub-slice of body.
func parseBody(body []byte) (Frame, error) {
	f, n, err := parseHeader(body)
	if err != nil {
		return Frame{}, err
	}
	if payload := body[n:]; len(payload) > 0 {
		f.Payload = payload
	}
	return f, nil
}

// DecodeFrame decodes one frame from the start of b, returning the
// frame and the bytes consumed. It never allocates proportionally to a
// declared length: the length prefix is validated against max and
// against the bytes actually present, and the payload is a sub-slice
// of b. A max of 0 selects DefaultMaxFrame.
func DecodeFrame(b []byte, max int) (Frame, int, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	length, n := binary.Uvarint(b)
	if n == 0 {
		return Frame{}, 0, fmt.Errorf("%w: length prefix truncated", ErrShortFrame)
	}
	if n < 0 {
		return Frame{}, 0, fmt.Errorf("%w: length prefix overflows", ErrBadFrame)
	}
	if length > uint64(max) {
		return Frame{}, 0, fmt.Errorf("%w: declared %d > cap %d", ErrFrameTooLarge, length, max)
	}
	if length > uint64(len(b)-n) {
		return Frame{}, 0, fmt.Errorf("%w: declared %d, have %d", ErrShortFrame, length, len(b)-n)
	}
	f, err := parseBody(b[n : n+int(length)])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, n + int(length), nil
}

// readChunk bounds a single allocation step while reading a declared
// frame length from a stream: memory grows with bytes actually
// received, never with the declared length alone.
const readChunk = 64 << 10

// ReadFrame reads one frame from a buffered stream. The declared
// length is capped at max (0 selects DefaultMaxFrame) before anything
// is allocated, and the payload grows chunk by chunk as bytes arrive,
// so a peer declaring a huge frame and stalling cannot make the reader
// pre-allocate the declared size. The header is parsed in the reader's
// own buffer, so a frame without a payload (a ping, its answer) touches
// no memory of the caller's.
//
// The payload is read into buf's backing array, grown as needed (so it
// may be a new one; cap(f.Payload) is then the grown buffer), and
// aliases it: a caller that recycles buf must be done with the frame
// first. A nil buf gives a fresh payload the caller owns outright.
// io.EOF is returned unwrapped on a clean end of stream.
func ReadFrame(br *bufio.Reader, max int, buf []byte) (Frame, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if length > uint64(max) {
		return Frame{}, fmt.Errorf("%w: declared %d > cap %d", ErrFrameTooLarge, length, max)
	}
	hdr, err := br.Peek(min(int(length), maxHeader))
	if err != nil {
		return Frame{}, fmt.Errorf("%w: body truncated: %v", ErrShortFrame, err)
	}
	f, n, herr := parseHeader(hdr)
	if herr != nil {
		// A truncated frame reads as short whatever its header says,
		// so consume the declared length before judging the header.
		if _, err := br.Discard(int(length)); err != nil {
			return Frame{}, fmt.Errorf("%w: body truncated: %v", ErrShortFrame, err)
		}
		return Frame{}, herr
	}
	_, _ = br.Discard(n) // n bytes were just peeked
	size := int(length) - n
	if size == 0 {
		return f, nil
	}
	payload := buf[:0]
	for len(payload) < size {
		start := len(payload)
		end := start + min(size-start, readChunk)
		payload = slices.Grow(payload, end-start)[:end]
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			return Frame{}, fmt.Errorf("%w: body truncated: %v", ErrShortFrame, err)
		}
	}
	f.Payload = payload
	return f, nil
}

// WriteFrame encodes f into buf (a reusable scratch slice, may be nil)
// and writes it to w in one call, returning the grown scratch slice
// for reuse. Callers serialize writes themselves.
func WriteFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf = AppendFrame(buf[:0], f)
	_, err := w.Write(buf)
	return buf, err
}
