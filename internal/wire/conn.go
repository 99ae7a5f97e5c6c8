package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is the client side of one multiplexed connection: any number of
// goroutines call concurrently, each call travels on its own stream
// id, and a background read loop routes response frames back to their
// callers — so one persistent TCP connection pipelines a whole
// device's offload traffic without head-of-line blocking between
// calls.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	w  frameWriter

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan Frame
	err     error // terminal error, set once under mu
	closed  bool

	maxFrame int
}

// slotPool holds call slots: the one-frame channel an in-flight call
// waits on. Slots are pooled across calls and connections, which is
// safe because of one rule: whoever removes a slot from Conn.pending
// (under Conn.mu) owns it. The read loop and fail remove it and then
// send exactly one frame into the one-slot buffer, so they never
// block; the caller takes it back either by receiving that frame or by
// removing the slot itself, and only then returns it to the pool —
// empty, with no sender left that could reach it.
var slotPool = sync.Pool{New: func() any { return make(chan Frame, 1) }}

// timerPool recycles the deadline timers of calls that carry their
// deadline as a value instead of a derived context. A timer goes back
// stopped and with an empty channel.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Fired. Under GODEBUG=asynctimerchan=1 the tick may still sit
		// in the channel; the next borrower must not read it.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// NewConn wraps an established connection and starts its read loop.
// max caps inbound frame sizes (0 selects DefaultMaxFrame). TCP
// connections get NoDelay set: frames are full messages, so Nagle
// coalescing only adds latency.
func NewConn(nc net.Conn, max int) *Conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if max <= 0 {
		max = DefaultMaxFrame
	}
	c := &Conn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		w:        frameWriter{nc: nc},
		pending:  make(map[uint64]chan Frame),
		maxFrame: max,
	}
	go c.readLoop()
	return c
}

// readLoop routes inbound frames to their waiting streams. Any read
// error is terminal: the connection is failed as a whole and every
// pending call gets the error, which the rpc retry layer treats as
// retryable (a fresh dial may reach a healthy peer).
func (c *Conn) readLoop() {
	for {
		// Callers keep what they decode from a response, so its
		// payload is read fresh, never into a recycled buffer.
		f, err := ReadFrame(c.br, c.maxFrame, nil)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		c.mu.Lock()
		slot, ok := c.pending[f.StreamID]
		if ok {
			delete(c.pending, f.StreamID)
		}
		c.mu.Unlock()
		if ok {
			// Buffered: an abandoned caller (context cancelled between
			// our delete and its own) never blocks the read loop.
			slot <- f
		}
	}
}

// fail marks the connection dead and wakes every pending call with the
// zero Frame — a type no decoded frame can carry — which sends the
// caller to c.err.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan Frame)
	c.mu.Unlock()
	_ = c.nc.Close()
	for _, slot := range pending {
		slot <- Frame{}
	}
}

// Close tears the connection down; pending calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if alreadyClosed {
		return nil
	}
	c.fail(ErrClosed)
	return nil
}

// Broken reports whether the connection has hit a terminal error.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// Call sends one frame and waits for the frame answering its stream
// id. The frame's StreamID is assigned here; Type, Flags, and Payload
// come from the caller, who may reuse payload as soon as Call returns.
// On context cancellation the stream is abandoned (a late response is
// dropped by the read loop) and the context error returned.
func (c *Conn) Call(ctx context.Context, ftype, flags byte, payload []byte) (Frame, error) {
	return c.call(ctx, time.Time{}, ftype, flags, payload)
}

// call is Call with the deadline as a value: a non-zero deadline ends
// the wait with context.DeadlineExceeded, exactly as a context derived
// with that deadline would, without deriving one.
func (c *Conn) call(ctx context.Context, deadline time.Time, ftype, flags byte, payload []byte) (Frame, error) {
	id := c.nextID.Add(1)
	slot := slotPool.Get().(chan Frame)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		slotPool.Put(slot)
		return Frame{}, err
	}
	c.pending[id] = slot
	c.mu.Unlock()

	if err := c.w.write(Frame{Type: ftype, Flags: flags, StreamID: id, Payload: payload}); err != nil {
		c.abandon(id, slot)
		// A write error poisons the stream for every call on it; fail
		// the connection so callers redial.
		c.fail(fmt.Errorf("%w: write: %v", ErrClosed, err))
		return Frame{}, fmt.Errorf("wire: write frame: %w", err)
	}
	var timer *time.Timer
	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer = getTimer(time.Until(deadline))
		expired = timer.C
	}
	var f Frame
	var err error
	select {
	case f = <-slot:
		slotPool.Put(slot)
		if f.Type == 0 {
			c.mu.Lock()
			err = c.err
			c.mu.Unlock()
		}
	case <-ctx.Done():
		c.abandon(id, slot)
		err = ctx.Err()
	case <-expired:
		c.abandon(id, slot)
		err = context.DeadlineExceeded
	}
	if timer != nil {
		putTimer(timer)
	}
	return f, err
}

// abandon gives up on a stream and recycles its slot. If the read loop
// or fail already took the slot out of pending, its one send is on the
// way (or in the buffer): take it, so the slot goes back empty.
func (c *Conn) abandon(id uint64, slot chan Frame) {
	c.mu.Lock()
	_, mine := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !mine {
		<-slot
	}
	slotPool.Put(slot)
}
