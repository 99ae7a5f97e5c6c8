package workers

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelcloud/internal/testkit"
)

// await fails the test unless cond turns true before a deadline.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *Pool[T]) counts() (idle, live int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle), p.live
}

// TestPoolReusesOneWorkerForSequentialTasks: tasks that never overlap
// all run on the same parked goroutine.
func TestPoolReusesOneWorkerForSequentialTasks(t *testing.T) {
	testkit.NoLeak(t)
	done := make(chan int)
	p := New(func(i int) { done <- i })
	defer p.Close()
	for i := 0; i < 1000; i++ {
		p.Go(i)
		if got := <-done; got != i {
			t.Fatalf("task %d ran as %d", i, got)
		}
		// The worker parks after run returns; the next Go must find it.
		await(t, "the worker to park", func() bool { idle, _ := p.counts(); return idle == 1 })
	}
	if _, live := p.counts(); live != 1 {
		t.Fatalf("1000 sequential tasks used %d workers, want 1", live)
	}
}

// TestPoolNeverQueuesBehindASlowTask: with every worker blocked, a new
// task still starts at once on a new worker.
func TestPoolNeverQueuesBehindASlowTask(t *testing.T) {
	testkit.NoLeak(t)
	release := make(chan struct{})
	var started sync.WaitGroup
	p := New(func(block bool) {
		started.Done()
		if block {
			<-release
		}
	})
	defer p.Close()
	const slow = 16
	started.Add(slow)
	for i := 0; i < slow; i++ {
		p.Go(true)
	}
	started.Wait()
	for i := 0; i < 100; i++ {
		started.Add(1)
		p.Go(false)
		started.Wait() // would hang if the task queued behind the blocked ones
	}
	close(release)
}

// TestPoolRetiresIdleWorkers: a burst's surplus workers are gone within
// two idle periods, and with them the reaper.
func TestPoolRetiresIdleWorkers(t *testing.T) {
	testkit.NoLeak(t)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	p := New(func(struct{}) { <-gate; wg.Done() })
	const burst = 32
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		p.Go(struct{}{})
	}
	close(gate)
	wg.Wait()
	await(t, "the burst's workers to park", func() bool { idle, _ := p.counts(); return idle == burst })
	await(t, "idle workers to retire", func() bool { _, live := p.counts(); return live == 0 })
	// No Close: NoLeak proves an abandoned pool drains to zero goroutines.
}

// TestPoolCloseStopsIdleWorkersAtOnce and lets a running one finish.
func TestPoolCloseStopsIdleWorkersAtOnce(t *testing.T) {
	testkit.NoLeak(t)
	release := make(chan struct{})
	var ran atomic.Int32
	p := New(func(block bool) {
		if block {
			<-release
		}
		ran.Add(1)
	})
	for i := 0; i < 8; i++ {
		p.Go(false)
	}
	await(t, "tasks to finish", func() bool { return ran.Load() == 8 })
	p.Go(true)
	p.Close()
	p.Close() // idempotent
	if idle, _ := p.counts(); idle != 0 {
		t.Fatalf("%d workers still parked after Close", idle)
	}
	p.Go(false) // still runs after Close
	await(t, "the post-Close task", func() bool { return ran.Load() == 9 })
	close(release)
	await(t, "the blocked task", func() bool { return ran.Load() == 10 })
	await(t, "every worker to exit", func() bool { _, live := p.counts(); return live == 0 })
}

// TestEachRunsMembersConcurrently: every member waits for all the
// others, which deadlocks unless all n run at the same time.
func TestEachRunsMembersConcurrently(t *testing.T) {
	for _, n := range []int{0, 1, 2, 64} {
		var barrier sync.WaitGroup
		barrier.Add(n)
		seen := make([]int, n)
		Each(n, func(i int) {
			barrier.Done()
			barrier.Wait()
			seen[i]++
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: member %d ran %d times", n, i, c)
			}
		}
	}
}

// TestEachNested: a member may itself fan out; nothing waits for a
// worker that is waiting for it.
func TestEachNested(t *testing.T) {
	var total atomic.Int32
	Each(8, func(int) {
		Each(8, func(int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("ran %d inner members, want 64", total.Load())
	}
}

// TestGoAllocatesNothingOnceWarm pins the point of the package.
func TestGoAllocatesNothingOnceWarm(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	done := make(chan struct{})
	p := New(func(struct{}) { done <- struct{}{} })
	defer p.Close()
	call := func() {
		p.Go(struct{}{})
		<-done
		for {
			if idle, _ := p.counts(); idle == 1 {
				return
			}
			runtime.Gosched()
		}
	}
	call()
	if n := testing.AllocsPerRun(1000, call); n != 0 {
		t.Fatalf("Go allocates %.1f per task on a warm pool, want 0", n)
	}
}
