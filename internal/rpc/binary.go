package rpc

import (
	"context"
	"fmt"
	"strings"
	"time"

	"accelcloud/internal/wire"
)

// The binary transport: the same Client surface (Offload, Execute,
// OffloadBatch, ExecuteBatch, Health) over length-prefixed frames on
// one persistent multiplexed TCP connection instead of one HTTP request
// per call. It plugs in underneath post, so the whole resilience
// ladder — Timeout, RetryPolicy, HedgePolicy, the counters — composes
// with it unchanged.

// wireClient lazily builds the framed-protocol client for a bin://
// BaseURL. The wire.Client redials transparently, so one rpc.Client
// keeps exactly one persistent connection per peer for its lifetime.
func (c *Client) wireClient() (*wire.Client, error) {
	c.binOnce.Do(func() {
		addr := strings.TrimPrefix(c.BaseURL, BinaryScheme)
		addr = strings.TrimSuffix(addr, "/")
		if addr == "" || strings.Contains(addr, "/") {
			c.binErr = fmt.Errorf("rpc: malformed binary address %q (want %shost:port)", c.BaseURL, BinaryScheme)
			return
		}
		c.bin = wire.NewClient(addr)
	})
	return c.bin, c.binErr
}

// binPost mirrors postJSON over the framed transport: one typed send
// (wire.Client encodes into its own pooled scratch), one answering
// frame, one typed decode — the request and the response never pass
// through an interface, and the deadline travels as a value, so a
// steady-state call allocates only what it returns. FrameError
// responses become *StatusError with the same HTTP-equivalent code the
// JSON compat mode would have produced, so the retry budget and the
// callers classify failures identically on both transports.
func binPost[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], deadline time.Time, in Req) (Resp, error) {
	var zero Resp
	bc, err := c.wireClient()
	if err != nil {
		return zero, err
	}
	f, err := m.send(bc, ctx, deadline, in)
	if err != nil {
		return zero, fmt.Errorf("rpc: %s: %w", m.path, err)
	}
	switch f.Type {
	case wire.FrameError:
		e, derr := wire.DecodeErrorFrame(f.Payload)
		if derr != nil {
			return zero, fmt.Errorf("rpc: %s: undecodable error frame: %w", m.path, derr)
		}
		return zero, fmt.Errorf("rpc: %s: %w", m.path, &StatusError{Code: e.Code, Body: e.Message})
	case m.answer:
		out, derr := m.decode(f.Payload)
		if derr != nil {
			return zero, fmt.Errorf("rpc: decode response: %w", derr)
		}
		return out, nil
	default:
		return zero, fmt.Errorf("rpc: %s: unexpected frame type %d", m.path, f.Type)
	}
}
