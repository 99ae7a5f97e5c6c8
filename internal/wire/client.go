package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// DefaultDialTimeout bounds connection establishment when the caller's
// context carries no earlier deadline.
const DefaultDialTimeout = 5 * time.Second

// Client maintains one persistent multiplexed connection to a binary
// peer, redialing transparently after the connection breaks — the
// binary counterpart of the pooled HTTP transport. All methods are
// safe for concurrent use; concurrent calls share the connection as
// independent streams.
type Client struct {
	// Addr is the peer's host:port.
	Addr string
	// DialTimeout bounds each dial (0 selects DefaultDialTimeout).
	DialTimeout time.Duration
	// MaxFrame caps inbound frames (0 selects DefaultMaxFrame).
	MaxFrame int

	mu   sync.Mutex
	conn *Conn
}

// NewClient builds a client for a binary peer at host:port.
func NewClient(addr string) *Client { return &Client{Addr: addr} }

// get returns a live connection, dialing if none exists or the cached
// one has broken. The mutex is held across the dial so a thundering
// herd after a peer restart performs one dial, not one per caller.
func (c *Client) get(ctx context.Context, deadline time.Time) (*Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil && !c.conn.Broken() {
		return c.conn, nil
	}
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	dialBy := time.Now().Add(timeout)
	if !deadline.IsZero() && deadline.Before(dialBy) {
		dialBy = deadline
	}
	dctx, cancel := context.WithDeadline(ctx, dialBy)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.Addr)
	if err != nil {
		return nil, err
	}
	c.conn = NewConn(nc, c.MaxFrame)
	return c.conn, nil
}

// invalidate drops a broken connection so the next call redials.
func (c *Client) invalidate(conn *Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == conn {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// Call sends one frame and returns the answering frame, dialing or
// redialing as needed. Connection-level failures invalidate the cached
// connection; the error is returned to the caller (the rpc retry
// budget decides whether to re-send).
func (c *Client) Call(ctx context.Context, ftype, flags byte, payload []byte) (Frame, error) {
	return c.call(ctx, time.Time{}, ftype, flags, payload)
}

func (c *Client) call(ctx context.Context, deadline time.Time, ftype, flags byte, payload []byte) (Frame, error) {
	conn, err := c.get(ctx, deadline)
	if err != nil {
		return Frame{}, err
	}
	f, err := conn.call(ctx, deadline, ftype, flags, payload)
	if err != nil && errors.Is(err, ErrClosed) {
		c.invalidate(conn)
	}
	return f, err
}

// The typed calls below are the steady-state request path: the
// message is encoded into pooled scratch, given back when the call
// returns, and the call's deadline travels as a value — the zero Time
// means none — so a caller with a per-call timeout derives no context.
// Past the deadline the call fails with context.DeadlineExceeded.

func send[M any](ctx context.Context, c *Client, deadline time.Time, ftype, flags byte, enc func([]byte, M) []byte, msg M) (Frame, error) {
	sc := getScratch()
	defer sc.release()
	sc.b = enc(sc.b, msg)
	return c.call(ctx, deadline, ftype, flags, sc.b)
}

// Offload sends one offload call to a front-end.
func (c *Client) Offload(ctx context.Context, deadline time.Time, req OffloadRequest) (Frame, error) {
	return send(ctx, c, deadline, FrameRequest, MethodOffload, AppendOffloadRequest, req)
}

// Execute sends one direct execution to a surrogate.
func (c *Client) Execute(ctx context.Context, deadline time.Time, req ExecuteRequest) (Frame, error) {
	return send(ctx, c, deadline, FrameRequest, MethodExecute, AppendExecuteRequest, req)
}

// OffloadBatch sends a chain of offload calls in one batch frame.
func (c *Client) OffloadBatch(ctx context.Context, deadline time.Time, req BatchRequest) (Frame, error) {
	return send(ctx, c, deadline, FrameBatch, 0, AppendBatchRequest, req)
}

// ExecuteBatch sends a batch of surrogate executions in one batch frame.
func (c *Client) ExecuteBatch(ctx context.Context, deadline time.Time, req ExecuteBatchRequest) (Frame, error) {
	return send(ctx, c, deadline, FrameBatch, FlagBatchExecute, AppendExecuteBatchRequest, req)
}

// Ping round-trips an empty request frame — the binary liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	f, err := c.Call(ctx, FrameRequest, MethodPing, nil)
	if err != nil {
		return err
	}
	if f.Type != FrameResponse {
		return errors.New("wire: ping answered by non-response frame")
	}
	return nil
}

// Close drops the cached connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	return nil
}
