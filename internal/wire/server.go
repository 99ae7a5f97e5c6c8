package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"accelcloud/internal/workers"
)

// Handlers are the application callbacks a Server dispatches to.
//
// A request's payload-backed fields — State.Data of an OffloadRequest
// or ExecuteRequest — alias the inbound frame, which the Server reads
// into a pooled buffer and recycles once the handler has returned and
// its reply is written. They are valid until the handler returns; a
// handler that keeps them longer (queues them, hands them to a
// goroutine that outlives it) must copy them. Strings are never
// affected: decoding copies or interns them.
type Handlers struct {
	// Offload serves one offload call, returning the response and its
	// HTTP-equivalent status code (200 on success) — the same pair the
	// JSON compat handler produces, so both protocols classify
	// failures identically. Offload batch frames fan out through this
	// handler one call at a time, which is what keeps pick policies,
	// in-flight counters, health observation, and chaos injection
	// seeing individual calls.
	Offload func(ctx context.Context, req OffloadRequest) (OffloadResponse, int)
	// Execute serves one direct surrogate execution (errors travel in
	// the response's Error field, mirroring the HTTP surrogate).
	Execute func(ctx context.Context, req ExecuteRequest) ExecuteResponse
	// ExecuteBatch serves one execute-batch frame: it fills out[i] with
	// the answer to calls[i] (len(out) == len(calls)), each member's
	// failure in its own Error field. Both slices are pooled and cleared
	// once the reply is written, so the handler must not keep them nor,
	// uncopied, the State.Data they carry.
	ExecuteBatch func(ctx context.Context, calls []ExecuteRequest, out []ExecuteResponse)
}

// Server accepts binary protocol connections and dispatches frames.
// Each request frame is served on its own worker goroutine — an idle
// reusable one when there is one, a new one otherwise — so slow calls
// never block other streams on the same connection and a steady load
// keeps its grown stacks; responses are written under a per-connection
// mutex.
type Server struct {
	// H holds the application callbacks; a nil callback rejects the
	// corresponding method with a 501 error frame.
	H Handlers
	// MaxFrame caps inbound frames (0 selects DefaultMaxFrame).
	MaxFrame int

	mu     sync.Mutex
	lis    []net.Listener
	conns  map[net.Conn]context.CancelFunc
	closed bool
	// pool runs dispatches; loops counts the serveConn goroutines
	// Close waits for.
	pool  *workers.Pool[job]
	loops sync.WaitGroup
}

// job is one inbound frame on its way to a dispatch worker. in holds
// the frame's payload and goes back to the pool once the dispatch has
// returned.
type job struct {
	ctx context.Context
	w   *frameWriter
	f   Frame
	in  *scratch
}

// closeWait bounds how long Close waits for connection loops to exit.
// They exit as soon as their closed connection fails the pending read,
// so the bound only matters if that read somehow does not return.
const closeWait = 2 * time.Second

// Serve accepts connections until the listener fails or Close is
// called (which returns nil).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = lis.Close()
		return ErrClosed
	}
	s.lis = append(s.lis, lis)
	if s.conns == nil {
		s.conns = make(map[net.Conn]context.CancelFunc)
		s.pool = workers.New(func(j job) {
			s.dispatch(j.ctx, j.w, j.f)
			j.in.release()
		})
	}
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			_ = nc.Close()
			return nil
		}
		s.conns[nc] = cancel
		s.loops.Add(1)
		s.mu.Unlock()
		go s.serveConn(ctx, nc)
	}
}

// Close stops the listeners, tears down live connections (in-flight
// handlers see their contexts cancelled), retires the idle dispatch
// workers, and waits — at most closeWait — for the connection loops to
// exit. A handler still running returns on its own; its worker exits
// with it.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.lis = nil
	conns := s.conns
	s.conns = nil
	pool := s.pool
	s.mu.Unlock()
	for _, l := range lis {
		_ = l.Close()
	}
	for nc, cancel := range conns {
		cancel()
		_ = nc.Close()
	}
	if pool == nil {
		return nil // never served
	}
	pool.Close()
	exited := make(chan struct{})
	go func() {
		s.loops.Wait()
		close(exited)
	}()
	bound := time.NewTimer(closeWait)
	defer bound.Stop()
	select {
	case <-exited:
	case <-bound.C:
	}
	return nil
}

func (s *Server) serveConn(ctx context.Context, nc net.Conn) {
	defer s.loops.Done()
	defer func() {
		s.mu.Lock()
		if cancel, ok := s.conns[nc]; ok {
			cancel()
			delete(s.conns, nc)
		}
		s.mu.Unlock()
		_ = nc.Close()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	w := &frameWriter{nc: nc}
	for {
		// Take a buffer only once the next frame has started to arrive,
		// so an idle connection pins none.
		if _, err := br.Peek(1); err != nil {
			return // the connection ended or broke between frames
		}
		in := getScratch()
		f, err := ReadFrame(br, s.MaxFrame, in.b)
		if f.Payload != nil {
			in.b = f.Payload[:0] // keep what the read grew
		}
		if err != nil {
			in.release()
			// An undecodable or oversized frame leaves the stream
			// position unknowable; report on stream 0 and drop the
			// connection. A clean EOF or cancelled context just ends.
			if ctx.Err() == nil && err != io.EOF &&
				(errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge)) {
				w.writeError(0, http.StatusBadRequest, err.Error())
			}
			return
		}
		s.pool.Go(job{ctx: ctx, w: w, f: f, in: in})
	}
}

// reply encodes one message into pooled scratch and writes it as a
// frame. Write errors are ignored here and below: the read loop will
// observe the broken connection and tear it down.
func reply[M any](w *frameWriter, ftype, flags byte, stream uint64, enc func([]byte, M) []byte, msg M) {
	sc := getScratch()
	sc.b = enc(sc.b, msg)
	_ = w.write(Frame{Type: ftype, Flags: flags, StreamID: stream, Payload: sc.b})
	sc.release()
}

// writeError answers a stream with a FrameError.
func (w *frameWriter) writeError(stream uint64, code int, msg string) {
	reply(w, FrameError, 0, stream, AppendErrorFrame, ErrorFrame{Code: code, Message: msg})
}

// dispatch serves one inbound frame.
func (s *Server) dispatch(ctx context.Context, w *frameWriter, f Frame) {
	switch f.Type {
	case FrameRequest:
		switch f.Flags & methodMask {
		case MethodPing:
			_ = w.write(Frame{Type: FrameResponse, StreamID: f.StreamID})
		case MethodOffload:
			if s.H.Offload == nil {
				w.writeError(f.StreamID, http.StatusNotImplemented, "wire: offload not served here")
				return
			}
			req, err := DecodeOffloadRequest(f.Payload)
			if err != nil {
				w.writeError(f.StreamID, http.StatusBadRequest, err.Error())
				return
			}
			resp, code := s.H.Offload(ctx, req)
			if code != 0 && code != http.StatusOK {
				w.writeError(f.StreamID, code, resp.Error)
				return
			}
			reply(w, FrameResponse, 0, f.StreamID, AppendOffloadResponse, resp)
		case MethodExecute:
			if s.H.Execute == nil {
				w.writeError(f.StreamID, http.StatusNotImplemented, "wire: execute not served here")
				return
			}
			req, err := DecodeExecuteRequest(f.Payload)
			if err != nil {
				w.writeError(f.StreamID, http.StatusBadRequest, err.Error())
				return
			}
			reply(w, FrameResponse, 0, f.StreamID, AppendExecuteResponse, s.H.Execute(ctx, req))
		}
	case FrameBatch:
		if f.Flags&FlagBatchResponse != 0 {
			w.writeError(f.StreamID, http.StatusBadRequest, "wire: batch response frame sent to server")
			return
		}
		if f.Flags&FlagBatchExecute != 0 {
			s.executeBatch(ctx, w, f)
			return
		}
		if s.H.Offload == nil {
			w.writeError(f.StreamID, http.StatusNotImplemented, "wire: offload not served here")
			return
		}
		batch, err := DecodeBatchRequest(f.Payload)
		if err != nil {
			w.writeError(f.StreamID, http.StatusBadRequest, err.Error())
			return
		}
		// Fan the chain out per call: every call takes its own trip
		// through the router, so the data plane's accounting is
		// identical whether calls arrive alone or chained.
		results := make([]BatchResult, len(batch.Calls))
		workers.Each(len(batch.Calls), func(i int) {
			resp, code := s.H.Offload(ctx, batch.Calls[i])
			if code == 0 {
				code = http.StatusOK
			}
			results[i] = BatchResult{Code: code, Resp: resp}
		})
		reply(w, FrameBatch, FlagBatchResponse, f.StreamID, AppendBatchResponse, BatchResponse{Results: results})
	default:
		// FrameResponse / FrameError have no meaning inbound on a
		// server; answer with a protocol error on the same stream.
		w.writeError(f.StreamID, http.StatusBadRequest, "wire: unexpected frame type from client")
	}
}

// executeBatch serves one execute-batch frame: the calls decode into a
// pooled slice, the handler fills a pooled result slice in call order,
// and one response frame answers the whole batch.
func (s *Server) executeBatch(ctx context.Context, w *frameWriter, f Frame) {
	if s.H.ExecuteBatch == nil {
		w.writeError(f.StreamID, http.StatusNotImplemented, "wire: execute batch not served here")
		return
	}
	b := getBatchSlots()
	defer b.release()
	var err error
	if b.calls, err = decodeExecuteCalls(f.Payload, b.calls); err != nil {
		w.writeError(f.StreamID, http.StatusBadRequest, err.Error())
		return
	}
	b.out = slices.Grow(b.out, len(b.calls))[:len(b.calls)]
	s.H.ExecuteBatch(ctx, b.calls, b.out)
	reply(w, FrameBatch, FlagBatchResponse|FlagBatchExecute, f.StreamID, AppendExecuteBatchResponse, ExecuteBatchResponse{Results: b.out})
}
