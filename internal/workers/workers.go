// Package workers runs tasks on reusable goroutines. A goroutine
// started per request begins on a 2 KB stack and re-grows it on the
// first deep call of every request; a parked worker keeps the stack it
// grew, so the steady-state request path copies no stacks and
// allocates nothing to hand a task over.
//
// A Pool never queues and never blocks the submitter: a task goes to
// an idle worker when one is parked and to a new goroutine otherwise,
// exactly the concurrency `go f(x)` gives, so one slow task never
// delays another. Workers nobody has needed for a whole idle period (1 s)
// retire, and a pool with no workers left holds no goroutine at all.
package workers

import (
	"sync"
	"time"
)

// idleTimeout is how long the pool's least-used workers stay parked
// before they retire: a worker that sat idle through one whole period
// is gone by the end of the next.
const idleTimeout = time.Second

// Pool runs tasks of type T on reusable goroutines. Tasks travel by
// value over a channel, so submitting one allocates nothing.
type Pool[T any] struct {
	run func(T)

	mu sync.Mutex
	// idle is a LIFO stack: the most recently parked worker (warmest
	// stack and cache) is reused first, so under a steady load the
	// bottom of the stack is exactly the surplus.
	idle []chan T
	// low is the shallowest the idle stack has been since the reaper
	// last looked: the workers below that mark went unused throughout.
	low int
	// live counts workers, parked or running.
	live int
	// stop is non-nil while a reaper goroutine is running.
	stop   chan struct{}
	closed bool
}

// New builds a pool whose workers call run on each task.
func New[T any](run func(T)) *Pool[T] { return &Pool[T]{run: run} }

// Go runs task on an idle worker, or on a new one when none is idle.
// It never blocks on other tasks. After Close it still runs the task;
// the worker just does not park afterwards.
func (p *Pool[T]) Go(task T) {
	p.mu.Lock()
	if n := len(p.idle) - 1; n >= 0 {
		ch := p.idle[n]
		p.idle[n] = nil
		p.idle = p.idle[:n]
		if n < p.low {
			p.low = n
		}
		p.mu.Unlock()
		// Only Go pops a parked worker's channel, so the one-slot
		// buffer is empty and the send cannot block.
		ch <- task
		return
	}
	p.live++
	p.mu.Unlock()
	go p.work(make(chan T, 1), task)
}

// work is one worker's life: run, park, repeat until retired.
func (p *Pool[T]) work(ch chan T, task T) {
	for {
		p.run(task)
		// A parked worker must not keep the finished task's memory alive.
		task = *new(T)
		p.mu.Lock()
		if p.closed {
			p.live--
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, ch)
		if p.stop == nil {
			p.stop = make(chan struct{})
			go p.reap(p.stop)
		}
		p.mu.Unlock()
		var ok bool
		if task, ok = <-ch; !ok {
			return // retired by the reaper or by Close
		}
	}
}

// reap retires, once per idleTimeout, the workers that stayed parked
// through the whole period, and exits when none are left (the next
// worker to park starts a new reaper) or when Close stops it.
func (p *Pool[T]) reap(stop chan struct{}) {
	tick := time.NewTicker(idleTimeout)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.retire(p.low)
		p.low = len(p.idle)
		done := p.live == 0
		if done {
			p.stop = nil
		}
		p.mu.Unlock()
		if done {
			return
		}
	}
}

// retire stops the n workers at the bottom of the idle stack. The
// caller holds mu; a channel removed here is unreachable from Go, so
// closing it cannot race a send.
func (p *Pool[T]) retire(n int) {
	for _, ch := range p.idle[:n] {
		close(ch)
	}
	p.live -= n
	rest := copy(p.idle, p.idle[n:])
	clear(p.idle[rest:])
	p.idle = p.idle[:rest]
}

// Close retires every idle worker and the reaper at once; a running
// worker exits when its task returns instead of parking. Close does
// not wait for running tasks.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.retire(len(p.idle))
	if p.stop != nil {
		close(p.stop)
		p.stop = nil
	}
}

// member is one call of an Each fan-out.
type member struct {
	fn func(int)
	i  int
	wg *sync.WaitGroup
}

// fan serves every Each in the process, like a sync.Pool of
// goroutines: its workers retire on their own when fan-outs stop, so
// it needs no owner and no Close.
var fan = New(func(m member) {
	defer m.wg.Done()
	m.fn(m.i)
})

// Each calls fn(0) … fn(n-1) concurrently and returns when all have
// returned: the per-member `go func` of a batch fan-out, on reusable
// workers. The last member runs on the caller's goroutine, which
// would otherwise only wait.
func Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		fan.Go(member{fn: fn, i: i, wg: &wg})
	}
	fn(n - 1)
	wg.Wait()
}
