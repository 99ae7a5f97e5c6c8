// Package serve is the per-backend admission layer of the serving
// stack: a bounded queue in front of each surrogate (kserve's
// queue-proxy shape) that enforces a concurrency limit, sheds load
// with a typed ErrQueueFull once the queue is full, and dynamically
// batches homogeneous queued tasks into one batch execution so the
// per-call protocol overhead amortizes across the batch.
//
// The router owns one Queue per backend entry. Pick consults
// Queue.Saturated to steer around full backends; the frontend submits
// picked work through Queue.Submit instead of calling the backend
// client directly. Everything is in-process and allocation-light: the
// queue is a buffered channel, dispatchers are Limit standing
// goroutines, and the gauges are atomics read by /stats.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/rpc"
)

// Config sizes one backend's admission queue.
type Config struct {
	// Limit is the number of concurrent dispatches to the backend
	// (standing dispatcher goroutines). 0 disables the queue layer
	// entirely — calls go straight to the client, as before PR 7.
	Limit int
	// Depth is the number of admitted-but-not-yet-dispatched requests
	// the queue holds before Submit rejects with ErrQueueFull. 0
	// selects DefaultDepth when Limit > 0.
	Depth int
	// MaxBatch > 1 enables dynamic batching: a dispatcher that pulls a
	// job keeps pulling queued jobs for the same task (up to MaxBatch)
	// and executes them as one ExecuteBatch round trip. A job for a
	// different task closes the batch and leads the next one.
	MaxBatch int
	// Linger bounds how long a dispatcher waits for the queue to yield
	// more same-task jobs before executing a short batch. 0 selects
	// DefaultLinger when MaxBatch > 1. Linger only costs latency when
	// the queue is empty; with a backlog the batch fills immediately.
	Linger time.Duration
}

// Defaults applied by New.
const (
	DefaultDepth  = 64
	DefaultLinger = 2 * time.Millisecond
)

// Enabled reports whether the config asks for an admission queue.
func (c Config) Enabled() bool { return c.Limit > 0 }

// Validate rejects unusable shapes.
func (c Config) Validate() error {
	if c.Limit < 0 {
		return fmt.Errorf("serve: concurrency limit %d < 0", c.Limit)
	}
	if c.Depth < 0 {
		return fmt.Errorf("serve: queue depth %d < 0", c.Depth)
	}
	if c.Linger < 0 {
		return fmt.Errorf("serve: linger %v < 0", c.Linger)
	}
	if c.MaxBatch > 1 && c.Limit == 0 {
		return errors.New("serve: batching requires a concurrency limit (set Limit > 0)")
	}
	return nil
}

// ErrQueueFull is the typed backpressure signal: the backend's
// admission queue is at capacity, so the caller should try another
// backend (the router's Pick already skips saturated ones) rather
// than pile on. It wraps rpc.ErrQueueFull so errors.Is classifies it
// in-process, and the message embeds rpc.MsgQueueFull so the
// rejection survives an HTTP 503 hop and rpc.IsQueueFull still
// classifies it client-side.
var ErrQueueFull = fmt.Errorf("serve: %w", rpc.ErrQueueFull)

// ErrClosed reports a Submit against a closed queue.
var ErrClosed = errors.New("serve: queue closed")

// Executor is the downstream the queue dispatches to — in production
// an *rpc.Client aimed at the backend.
type Executor interface {
	Execute(ctx context.Context, req rpc.ExecuteRequest) (rpc.ExecuteResponse, error)
	ExecuteBatch(ctx context.Context, reqs []rpc.ExecuteRequest) ([]rpc.ExecuteResponse, error)
}

// Timing is the queue's per-job wait breakdown, reported alongside the
// response so trace-sampled requests can bill admission-queue wait and
// batch linger as separate span hops.
type Timing struct {
	// QueueMs is enqueue → pulled by a dispatcher.
	QueueMs float64
	// LingerMs is pulled → dispatch started (time spent held open while
	// the batcher coalesced batchmates, or parked as a carry job).
	LingerMs float64
}

type result struct {
	resp   rpc.ExecuteResponse
	timing Timing
	err    error
}

type job struct {
	ctx  context.Context
	req  rpc.ExecuteRequest
	done chan result // buffered 1: dispatchers never block on delivery

	enq    time.Time // stamped by Submit
	pulled time.Time // stamped when a dispatcher takes it off the channel
}

// Queue is one backend's bounded admission queue plus its dispatcher
// pool. Submit is safe for concurrent use; Close is idempotent.
type Queue struct {
	cfg  Config
	exec Executor

	jobs   chan *job
	queued atomic.Int64 // jobs admitted, not yet pulled by a dispatcher

	executing atomic.Int64 // dispatches in flight (a batch counts once)
	batches   atomic.Int64 // multi-job dispatches executed
	coalesced atomic.Int64 // jobs that rode inside multi-job dispatches
	rejected  atomic.Int64 // Submits refused with ErrQueueFull

	// mu makes the closed-check + enqueue in Submit atomic with the
	// drain in Close: Submits enqueue under the read lock, the drain
	// runs under the write lock, so no job can slip into the channel
	// after the drain has already emptied it.
	mu        sync.RWMutex
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a queue and starts its cfg.Limit dispatchers. Returns nil
// when the config does not enable the queue layer.
func New(cfg Config, exec Executor) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cfg.Depth == 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.MaxBatch > 1 && cfg.Linger == 0 {
		cfg.Linger = DefaultLinger
	}
	q := &Queue{
		cfg:    cfg,
		exec:   exec,
		jobs:   make(chan *job, cfg.Depth),
		closed: make(chan struct{}),
	}
	q.wg.Add(cfg.Limit)
	for i := 0; i < cfg.Limit; i++ {
		go q.dispatch()
	}
	return q, nil
}

// Config echoes the effective (default-filled) configuration.
func (q *Queue) Config() Config { return q.cfg }

// Queued is the current number of admitted-but-undispatched jobs.
func (q *Queue) Queued() int { return int(q.queued.Load()) }

// Executing is the current number of in-flight dispatches.
func (q *Queue) Executing() int { return int(q.executing.Load()) }

// Rejected counts Submits refused with ErrQueueFull.
func (q *Queue) Rejected() int64 { return q.rejected.Load() }

// Batches and Coalesced count multi-job dispatches and the jobs that
// rode in them — the batching efficiency numerator and denominator.
func (q *Queue) Batches() int64   { return q.batches.Load() }
func (q *Queue) Coalesced() int64 { return q.coalesced.Load() }

// Saturated reports whether the queue is at capacity — the router's
// Pick skips backends for which this is true. It is a racy read by
// design (Submit is the hard gate); the steady state under overload
// keeps the queue full, so the signal is stable when it matters.
func (q *Queue) Saturated() bool {
	return int(q.queued.Load()) >= q.cfg.Depth
}

// Submit admits one request and blocks until a dispatcher executes it
// (possibly inside a batch) or ctx is done. A full queue rejects
// immediately with ErrQueueFull.
func (q *Queue) Submit(ctx context.Context, req rpc.ExecuteRequest) (rpc.ExecuteResponse, error) {
	resp, _, err := q.SubmitTimed(ctx, req)
	return resp, err
}

// SubmitTimed is Submit plus the job's queue-wait/linger breakdown —
// the serving layer's contribution to a request-scoped trace span.
// The Timing is zero when the call failed before dispatch.
//
// The queue owns what it holds: an admitted job can outlive this call
// (it returns on ctx.Done while the job stays queued, and a dispatcher
// may already be reading it), so req.State.Data is copied here and the
// caller may reuse its bytes as soon as SubmitTimed returns.
func (q *Queue) SubmitTimed(ctx context.Context, req rpc.ExecuteRequest) (rpc.ExecuteResponse, Timing, error) {
	req.State.Data = bytes.Clone(req.State.Data)
	j := &job{ctx: ctx, req: req, done: make(chan result, 1), enq: time.Now()}
	q.mu.RLock()
	select {
	case <-q.closed:
		q.mu.RUnlock()
		return rpc.ExecuteResponse{}, Timing{}, ErrClosed
	default:
	}
	q.queued.Add(1)
	select {
	case q.jobs <- j:
		q.mu.RUnlock()
	default:
		q.mu.RUnlock()
		q.queued.Add(-1)
		q.rejected.Add(1)
		return rpc.ExecuteResponse{}, Timing{}, ErrQueueFull
	}
	select {
	case r := <-j.done:
		return r.resp, r.timing, r.err
	case <-ctx.Done():
		// The job stays queued; its dispatcher drops it with ctx.Err()
		// instead of executing it.
		return rpc.ExecuteResponse{}, Timing{}, ctx.Err()
	case <-q.closed:
		// Once enqueued, delivery is guaranteed: a dispatcher runs the
		// job, or Close's drain (serialized against this enqueue by mu)
		// fails it with ErrClosed.
		r := <-j.done
		return r.resp, r.timing, r.err
	}
}

// Close stops the dispatchers and fails any still-queued jobs with
// ErrClosed. In-flight dispatches finish.
func (q *Queue) Close() {
	if q == nil {
		return
	}
	q.closeOnce.Do(func() { close(q.closed) })
	q.wg.Wait()
	// The write lock excludes in-flight enqueues, so when the drain
	// sees an empty channel it stays empty: any later Submit observes
	// closed (it closed before the lock was taken) and never enqueues.
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		select {
		case j := <-q.jobs:
			q.queued.Add(-1)
			j.done <- result{err: ErrClosed}
		default:
			return
		}
	}
}

// dispatch is one standing dispatcher: pull a job, optionally coalesce
// same-task followers up to MaxBatch within Linger, execute.
func (q *Queue) dispatch() {
	defer q.wg.Done()
	var carry *job // heterogeneous job that closed the previous batch
	// buf and reqs back every batch this dispatcher runs; run is done
	// with both when it returns (ExecuteBatch returns only once every
	// hedged lane has), so they are cleared and reused.
	buf := make([]*job, 0, max(q.cfg.MaxBatch, 1))
	reqs := make([]rpc.ExecuteRequest, 0, max(q.cfg.MaxBatch, 1))
	for {
		var lead *job
		if carry != nil {
			lead, carry = carry, nil
		} else {
			select {
			case lead = <-q.jobs:
				q.queued.Add(-1)
				lead.pulled = time.Now()
			case <-q.closed:
				return
			}
		}
		batch := append(buf[:0], lead)
		if q.cfg.MaxBatch > 1 {
			batch, carry = q.fill(batch)
		}
		q.run(batch, reqs)
		clear(batch)
		clear(reqs[:cap(reqs)])
	}
}

// fill coalesces queued jobs for lead's task until the batch is full,
// the linger expires, the queue yields a different task (returned as
// carry), or the queue closes.
func (q *Queue) fill(batch []*job) (full []*job, carry *job) {
	lead := batch[0]
	linger := time.NewTimer(q.cfg.Linger)
	defer linger.Stop()
	for len(batch) < q.cfg.MaxBatch {
		select {
		case next := <-q.jobs:
			q.queued.Add(-1)
			next.pulled = time.Now()
			if next.req.State.Task != lead.req.State.Task {
				return batch, next
			}
			batch = append(batch, next)
		case <-linger.C:
			return batch, nil
		case <-q.closed:
			return batch, nil
		}
	}
	return batch, nil
}

// run executes a batch: singletons via Execute, larger batches via one
// ExecuteBatch round trip, sent from reqs, whose responses fan back out
// in order.
func (q *Queue) run(batch []*job, reqs []rpc.ExecuteRequest) {
	// Drop members whose caller already gave up (their Submit returned
	// ctx.Err()): executing them wastes a backend slot, and a dead job
	// elected batch lead would sink the whole batch with its cancelled
	// context — live followers would see spurious backend failures from
	// one client hang-up. done is buffered, so delivery never blocks.
	live := batch[:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			j.done <- result{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	// Bill each job's waits at dispatch start: queue wait is enqueue →
	// pulled, linger is pulled → here (lead jobs pay the full fill
	// window, late joiners only their remainder).
	start := time.Now()
	timingOf := func(j *job) Timing {
		return Timing{
			QueueMs:  float64(j.pulled.Sub(j.enq)) / float64(time.Millisecond),
			LingerMs: float64(start.Sub(j.pulled)) / float64(time.Millisecond),
		}
	}
	q.executing.Add(1)
	defer q.executing.Add(-1)
	if len(live) == 1 {
		j := live[0]
		resp, err := q.exec.Execute(j.ctx, j.req)
		j.done <- result{resp: resp, timing: timingOf(j), err: err}
		return
	}
	q.batches.Add(1)
	q.coalesced.Add(int64(len(live)))
	for _, j := range live {
		reqs = append(reqs, j.req)
	}
	// The batch rides the (live) lead job's context: its deadline
	// covers the whole dispatch.
	resps, err := q.exec.ExecuteBatch(live[0].ctx, reqs)
	if err != nil || len(resps) != len(live) {
		if err == nil {
			err = fmt.Errorf("serve: batch returned %d results for %d calls", len(resps), len(live))
		}
		for _, j := range live {
			j.done <- result{err: err}
		}
		return
	}
	for i, j := range live {
		r := result{resp: resps[i], timing: timingOf(j)}
		if resps[i].Error != "" {
			// Mirror Execute's contract: a per-call Error inside the
			// batch is a failed call, not a success with a zero Result.
			r.err = fmt.Errorf("rpc: remote: %s", resps[i].Error)
		}
		j.done <- r
	}
}
