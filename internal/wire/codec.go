package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"accelcloud/internal/tasks"
)

// The payload codec: positional fields, zigzag varints for integers,
// fixed 8-byte IEEE 754 for floats, and uvarint length prefixes for
// strings and byte blobs. Every length is checked against the bytes
// actually present before anything is allocated, so a declared length
// can never make the decoder reserve more memory than the attacker
// sent.

// cur is a bounds-checked read cursor over one frame payload.
type cur struct {
	b   []byte
	off int
}

func (c *cur) remaining() int { return len(c.b) - c.off }

func (c *cur) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadFrame)
	}
	c.off += n
	return v, nil
}

func (c *cur) svarint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadFrame)
	}
	c.off += n
	return v, nil
}

// sint decodes a zigzag varint that must fit the platform int.
func (c *cur) sint() (int, error) {
	v, err := c.svarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt || v < math.MinInt {
		return 0, fmt.Errorf("%w: varint overflows int", ErrBadFrame)
	}
	return int(v), nil
}

func (c *cur) f64() (float64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("%w: short float64", ErrBadFrame)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// blob reads a length-prefixed byte string as a sub-slice of the
// payload — the declared length is validated against the remaining
// bytes first, and no copy is made. A zero length decodes as nil so a
// round-tripped message compares equal to one built with nil fields.
func (c *cur) blob() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.remaining()) {
		return nil, fmt.Errorf("%w: blob length %d exceeds remaining %d", ErrBadFrame, n, c.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := c.b[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return out, nil
}

func (c *cur) str() (string, error) {
	b, err := c.blob()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// name reads a string from a small vocabulary — a task, server or
// region name — through the intern table, so steady-state decodes share one
// copy instead of allocating per message.
func (c *cur) name() (string, error) {
	b, err := c.blob()
	if err != nil {
		return "", err
	}
	return intern(b), nil
}

// done rejects trailing garbage after a fully decoded message.
func (c *cur) done() error {
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, c.remaining())
	}
	return nil
}

// --- append helpers -------------------------------------------------------

func appendBlob(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// --- state / result -------------------------------------------------------

func appendState(dst []byte, st tasks.State) []byte {
	dst = appendString(dst, st.Task)
	dst = appendInt(dst, st.Size)
	return appendBlob(dst, st.Data)
}

func decodeState(c *cur) (tasks.State, error) {
	var st tasks.State
	var err error
	if st.Task, err = c.name(); err != nil {
		return st, err
	}
	if st.Size, err = c.sint(); err != nil {
		return st, err
	}
	if st.Data, err = c.blob(); err != nil {
		return st, err
	}
	return st, nil
}

func appendResult(dst []byte, r tasks.Result) []byte {
	dst = appendString(dst, r.Task)
	dst = appendBlob(dst, r.Data)
	return binary.AppendVarint(dst, r.Ops)
}

func decodeResult(c *cur) (tasks.Result, error) {
	var r tasks.Result
	var err error
	if r.Task, err = c.name(); err != nil {
		return r, err
	}
	if r.Data, err = c.blob(); err != nil {
		return r, err
	}
	if r.Ops, err = c.svarint(); err != nil {
		return r, err
	}
	return r, nil
}

// --- offload request ------------------------------------------------------

// AppendOffloadRequest encodes r after dst.
func AppendOffloadRequest(dst []byte, r OffloadRequest) []byte {
	dst = appendInt(dst, r.UserID)
	dst = appendInt(dst, r.Group)
	dst = appendF64(dst, r.BatteryLevel)
	dst = appendString(dst, r.IdemKey)
	dst = appendString(dst, r.Origin)
	dst = binary.AppendUvarint(dst, r.SpanID)
	return appendState(dst, r.State)
}

func decodeOffloadRequest(c *cur) (OffloadRequest, error) {
	var r OffloadRequest
	var err error
	if r.UserID, err = c.sint(); err != nil {
		return r, err
	}
	if r.Group, err = c.sint(); err != nil {
		return r, err
	}
	if r.BatteryLevel, err = c.f64(); err != nil {
		return r, err
	}
	if r.IdemKey, err = c.str(); err != nil {
		return r, err
	}
	if r.Origin, err = c.name(); err != nil {
		return r, err
	}
	if r.SpanID, err = c.uvarint(); err != nil {
		return r, err
	}
	if r.State, err = decodeState(c); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeOffloadRequest decodes exactly one request from b.
func DecodeOffloadRequest(b []byte) (OffloadRequest, error) {
	c := &cur{b: b}
	r, err := decodeOffloadRequest(c)
	if err != nil {
		return r, err
	}
	return r, c.done()
}

// --- offload response -----------------------------------------------------

// AppendOffloadResponse encodes r after dst. The span rides as a
// presence flag plus fields, so unsampled responses pay one byte.
func AppendOffloadResponse(dst []byte, r OffloadResponse) []byte {
	dst = appendString(dst, r.Server)
	dst = appendInt(dst, r.Group)
	dst = appendF64(dst, r.Timings.RoutingMs)
	dst = appendF64(dst, r.Timings.BackendMs)
	dst = appendF64(dst, r.Timings.CloudMs)
	dst = appendString(dst, r.Error)
	if r.Span == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, 1)
		dst = binary.AppendUvarint(dst, r.Span.ID)
		dst = appendF64(dst, r.Span.QueueMs)
		dst = appendF64(dst, r.Span.LingerMs)
		dst = appendF64(dst, r.Span.ColdMs)
		dst = appendF64(dst, r.Span.NetworkMs)
		dst = appendF64(dst, r.Span.ExecMs)
		dst = appendInt(dst, r.Span.Hops)
	}
	return appendResult(dst, r.Result)
}

func decodeOffloadResponse(c *cur) (OffloadResponse, error) {
	var r OffloadResponse
	var err error
	if r.Server, err = c.name(); err != nil {
		return r, err
	}
	if r.Group, err = c.sint(); err != nil {
		return r, err
	}
	if r.Timings.RoutingMs, err = c.f64(); err != nil {
		return r, err
	}
	if r.Timings.BackendMs, err = c.f64(); err != nil {
		return r, err
	}
	if r.Timings.CloudMs, err = c.f64(); err != nil {
		return r, err
	}
	if r.Error, err = c.str(); err != nil {
		return r, err
	}
	present, err := c.uvarint()
	if err != nil {
		return r, err
	}
	switch present {
	case 0:
	case 1:
		sp := &Span{}
		if sp.ID, err = c.uvarint(); err != nil {
			return r, err
		}
		if sp.QueueMs, err = c.f64(); err != nil {
			return r, err
		}
		if sp.LingerMs, err = c.f64(); err != nil {
			return r, err
		}
		if sp.ColdMs, err = c.f64(); err != nil {
			return r, err
		}
		if sp.NetworkMs, err = c.f64(); err != nil {
			return r, err
		}
		if sp.ExecMs, err = c.f64(); err != nil {
			return r, err
		}
		if sp.Hops, err = c.sint(); err != nil {
			return r, err
		}
		r.Span = sp
	default:
		return r, fmt.Errorf("%w: span presence flag %d", ErrBadFrame, present)
	}
	if r.Result, err = decodeResult(c); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeOffloadResponse decodes exactly one response from b.
func DecodeOffloadResponse(b []byte) (OffloadResponse, error) {
	c := &cur{b: b}
	r, err := decodeOffloadResponse(c)
	if err != nil {
		return r, err
	}
	return r, c.done()
}

// --- execute --------------------------------------------------------------

// AppendExecuteRequest encodes r after dst.
func AppendExecuteRequest(dst []byte, r ExecuteRequest) []byte {
	return appendState(dst, r.State)
}

// DecodeExecuteRequest decodes exactly one execute request from b.
func DecodeExecuteRequest(b []byte) (ExecuteRequest, error) {
	c := &cur{b: b}
	st, err := decodeState(c)
	if err != nil {
		return ExecuteRequest{}, err
	}
	return ExecuteRequest{State: st}, c.done()
}

// AppendExecuteResponse encodes r after dst.
func AppendExecuteResponse(dst []byte, r ExecuteResponse) []byte {
	dst = appendResult(dst, r.Result)
	dst = appendF64(dst, r.CloudMs)
	dst = appendString(dst, r.Server)
	return appendString(dst, r.Error)
}

func decodeExecuteResponse(c *cur) (ExecuteResponse, error) {
	var r ExecuteResponse
	var err error
	if r.Result, err = decodeResult(c); err != nil {
		return r, err
	}
	if r.CloudMs, err = c.f64(); err != nil {
		return r, err
	}
	if r.Server, err = c.name(); err != nil {
		return r, err
	}
	if r.Error, err = c.str(); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeExecuteResponse decodes exactly one execute response from b.
func DecodeExecuteResponse(b []byte) (ExecuteResponse, error) {
	c := &cur{b: b}
	r, err := decodeExecuteResponse(c)
	if err != nil {
		return r, err
	}
	return r, c.done()
}

// --- batches --------------------------------------------------------------

// batchCount reads the call (or result) count that opens every batch
// payload. It is capped at MaxBatchCalls and at the bytes left, since
// the smallest encodable call or result is over one byte, so a count
// that passes can size an allocation without trusting the peer.
func (c *cur) batchCount() (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxBatchCalls {
		return 0, fmt.Errorf("%w: batch of %d exceeds cap %d", ErrBadFrame, n, MaxBatchCalls)
	}
	if n > uint64(c.remaining()) {
		return 0, fmt.Errorf("%w: batch count %d exceeds remaining bytes %d", ErrBadFrame, n, c.remaining())
	}
	return int(n), nil
}

// AppendBatchRequest encodes a call chain after dst.
func AppendBatchRequest(dst []byte, b BatchRequest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Calls)))
	for _, call := range b.Calls {
		dst = AppendOffloadRequest(dst, call)
	}
	return dst
}

// DecodeBatchRequest decodes exactly one call chain from b. The call
// count is checked by batchCount before any per-call allocation
// happens.
func DecodeBatchRequest(b []byte) (BatchRequest, error) {
	c := &cur{b: b}
	n, err := c.batchCount()
	if err != nil {
		return BatchRequest{}, err
	}
	out := BatchRequest{Calls: make([]OffloadRequest, 0, n)}
	for range n {
		call, err := decodeOffloadRequest(c)
		if err != nil {
			return BatchRequest{}, err
		}
		out.Calls = append(out.Calls, call)
	}
	return out, c.done()
}

// AppendBatchResponse encodes a chain's results after dst.
func AppendBatchResponse(dst []byte, b BatchResponse) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Results)))
	for _, res := range b.Results {
		dst = appendInt(dst, res.Code)
		dst = AppendOffloadResponse(dst, res.Resp)
	}
	return dst
}

// DecodeBatchResponse decodes exactly one chain of results from b.
func DecodeBatchResponse(b []byte) (BatchResponse, error) {
	c := &cur{b: b}
	n, err := c.batchCount()
	if err != nil {
		return BatchResponse{}, err
	}
	out := BatchResponse{Results: make([]BatchResult, 0, n)}
	for range n {
		var res BatchResult
		if res.Code, err = c.sint(); err != nil {
			return BatchResponse{}, err
		}
		if res.Resp, err = decodeOffloadResponse(c); err != nil {
			return BatchResponse{}, err
		}
		out.Results = append(out.Results, res)
	}
	return out, c.done()
}

// AppendExecuteBatchRequest encodes a batch of surrogate calls after
// dst.
func AppendExecuteBatchRequest(dst []byte, b ExecuteBatchRequest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Calls)))
	for _, call := range b.Calls {
		dst = AppendExecuteRequest(dst, call)
	}
	return dst
}

// DecodeExecuteBatchRequest decodes exactly one batch of surrogate calls
// from b.
func DecodeExecuteBatchRequest(b []byte) (ExecuteBatchRequest, error) {
	calls, err := decodeExecuteCalls(b, nil)
	if err != nil {
		return ExecuteBatchRequest{}, err
	}
	return ExecuteBatchRequest{Calls: calls}, nil
}

// decodeExecuteCalls decodes a batch of surrogate calls into calls[:0],
// growing it only when its capacity is short of the checked count — the
// server decodes into a pooled slice this way. On error the returned
// slice still holds whatever was decoded, so its owner can clear it.
func decodeExecuteCalls(b []byte, calls []ExecuteRequest) ([]ExecuteRequest, error) {
	c := &cur{b: b}
	n, err := c.batchCount()
	if err != nil {
		return calls[:0], err
	}
	calls = slices.Grow(calls[:0], n)
	for range n {
		st, err := decodeState(c)
		if err != nil {
			return calls, err
		}
		calls = append(calls, ExecuteRequest{State: st})
	}
	return calls, c.done()
}

// AppendExecuteBatchResponse encodes a batch's results after dst, in
// call order.
func AppendExecuteBatchResponse(dst []byte, b ExecuteBatchResponse) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Results)))
	for _, res := range b.Results {
		dst = AppendExecuteResponse(dst, res)
	}
	return dst
}

// DecodeExecuteBatchResponse decodes exactly one batch of surrogate
// results from b.
func DecodeExecuteBatchResponse(b []byte) (ExecuteBatchResponse, error) {
	c := &cur{b: b}
	n, err := c.batchCount()
	if err != nil {
		return ExecuteBatchResponse{}, err
	}
	out := ExecuteBatchResponse{Results: make([]ExecuteResponse, 0, n)}
	for range n {
		res, err := decodeExecuteResponse(c)
		if err != nil {
			return ExecuteBatchResponse{}, err
		}
		out.Results = append(out.Results, res)
	}
	return out, c.done()
}

// --- error frames ---------------------------------------------------------

// AppendErrorFrame encodes a protocol error payload after dst.
func AppendErrorFrame(dst []byte, e ErrorFrame) []byte {
	dst = appendInt(dst, e.Code)
	return appendString(dst, e.Message)
}

// DecodeErrorFrame decodes exactly one error payload from b.
func DecodeErrorFrame(b []byte) (ErrorFrame, error) {
	c := &cur{b: b}
	var e ErrorFrame
	var err error
	if e.Code, err = c.sint(); err != nil {
		return e, err
	}
	if e.Message, err = c.str(); err != nil {
		return e, err
	}
	return e, c.done()
}
