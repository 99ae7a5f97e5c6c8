package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
)

// fakeExec is a controllable Executor: Execute blocks until release is
// closed (when set), every call is counted, and requests whose Size
// equals failSize come back with a per-call Error (the in-band failure
// shape a surrogate uses for e.g. dalvik slot saturation).
type fakeExec struct {
	mu       sync.Mutex
	release  chan struct{}
	failSize int
	execs    atomic.Int64
	batches  atomic.Int64
	batchLen []int
}

func (f *fakeExec) Execute(ctx context.Context, req rpc.ExecuteRequest) (rpc.ExecuteResponse, error) {
	f.execs.Add(1)
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return rpc.ExecuteResponse{}, ctx.Err()
		}
	}
	return rpc.ExecuteResponse{Server: "fake", Result: tasks.Result{Task: req.State.Task}}, nil
}

func (f *fakeExec) ExecuteBatch(ctx context.Context, reqs []rpc.ExecuteRequest) ([]rpc.ExecuteResponse, error) {
	f.batches.Add(1)
	f.mu.Lock()
	f.batchLen = append(f.batchLen, len(reqs))
	f.mu.Unlock()
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]rpc.ExecuteResponse, len(reqs))
	for i, r := range reqs {
		if f.failSize != 0 && r.State.Size == f.failSize {
			out[i] = rpc.ExecuteResponse{Server: "fake", Error: "task failed"}
			continue
		}
		out[i] = rpc.ExecuteResponse{Server: "fake", Result: tasks.Result{Task: r.State.Task}}
	}
	return out, nil
}

// waitFor polls until cond holds. The caller has arranged for cond to
// become true whatever the scheduling; the ceiling only turns a product
// bug into a message instead of the package timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Since(start) > time.Minute {
			t.Fatalf("waiting for %s", what)
		}
	}
}

func req(task string) rpc.ExecuteRequest {
	return rpc.ExecuteRequest{State: tasks.State{Task: task, Size: 1}}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Limit: -1},
		{Limit: 1, Depth: -1},
		{Limit: 1, Linger: -time.Millisecond},
		{MaxBatch: 4}, // batching without a limit
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted an unusable config", c)
		}
	}
	if err := (Config{Limit: 2, Depth: 8, MaxBatch: 4, Linger: time.Millisecond}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledConfigReturnsNilQueue(t *testing.T) {
	q, err := New(Config{}, &fakeExec{})
	if err != nil {
		t.Fatal(err)
	}
	if q != nil {
		t.Fatal("Limit 0 should disable the queue layer")
	}
	// The nil queue must be Close-safe: the router closes queues
	// unconditionally on Remove/Evict.
	q.Close()
}

func TestSubmitExecutes(t *testing.T) {
	ex := &fakeExec{}
	q, err := New(Config{Limit: 2, Depth: 4}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	resp, err := q.Submit(context.Background(), req("minimax"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != "fake" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := ex.execs.Load(); got != 1 {
		t.Fatalf("executes = %d", got)
	}
}

// TestQueueFullRejects fills the limit with blocked executions and the
// depth with waiting jobs, then proves the next Submit sheds with
// ErrQueueFull instead of blocking, and that the queue recovers after
// the backlog drains.
func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release}
	const limit, depth = 2, 3
	q, err := New(Config{Limit: limit, Depth: depth}, ex)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	// Registered after Close, so it runs before it: a failed assertion
	// must not leave Close waiting on dispatchers parked in the executor.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	var wg sync.WaitGroup
	errs := make([]error, limit+depth)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = q.Submit(context.Background(), req("minimax"))
		}()
	}
	// The dispatchers take `limit` jobs and park in the executor; only
	// then can `depth` more be admitted for certain. Submitted all at
	// once, a fourth could find the buffer full before a dispatcher has
	// pulled anything, and the queue would never saturate.
	for i := 0; i < limit; i++ {
		submit(i)
	}
	waitFor(t, "the dispatchers to hold a job each", func() bool { return q.Executing() == limit })
	for i := limit; i < limit+depth; i++ {
		submit(i)
	}
	waitFor(t, "the backlog to be admitted", func() bool { return q.Queued() == depth })
	if !q.Saturated() {
		t.Fatal("Saturated() = false at full depth")
	}
	if _, err := q.Submit(context.Background(), req("minimax")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit err = %v, want ErrQueueFull", err)
	}
	if q.Rejected() != 1 {
		t.Fatalf("rejected = %d", q.Rejected())
	}

	unblock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if q.Saturated() {
		t.Fatal("still saturated after drain")
	}
	if _, err := q.Submit(context.Background(), req("minimax")); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
}

// TestBatchCoalesces backlogs 8 same-task jobs behind one blocked
// dispatcher and proves they execute as one ExecuteBatch round trip.
func TestBatchCoalesces(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 8, Linger: 50 * time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// Plug the single dispatcher with one job...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...then backlog 8 homogeneous jobs while it is busy.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("minimax")) }()
	}
	for q.Queued() < 8 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := ex.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1 (batch lens %v)", got, ex.batchLen)
	}
	if len(ex.batchLen) != 1 || ex.batchLen[0] != 8 {
		t.Fatalf("batch lens = %v, want [8]", ex.batchLen)
	}
	if q.Batches() != 1 || q.Coalesced() != 8 {
		t.Fatalf("gauges: batches=%d coalesced=%d", q.Batches(), q.Coalesced())
	}
}

// TestBatchBreaksOnTaskChange backlogs a heterogeneous run and proves
// the dispatcher never mixes tasks in one batch: the odd task carries
// over into its own dispatch.
func TestBatchBreaksOnTaskChange(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 8, Linger: 50 * time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Backlog must land in order: 3×matmul, then 1×minimax.
	submit := func(task string) {
		want := q.Queued() + 1 // read before the go: a fast enqueue would make it one too high
		wg.Add(1)
		go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req(task)) }()
		for q.Queued() < want {
			time.Sleep(100 * time.Microsecond)
		}
	}
	submit("matmul")
	submit("matmul")
	submit("matmul")
	submit("minimax")
	close(release)
	wg.Wait()

	ex.mu.Lock()
	lens := append([]int(nil), ex.batchLen...)
	ex.mu.Unlock()
	// One 3-job matmul batch; plug and minimax ran as singletons.
	if len(lens) != 1 || lens[0] != 3 {
		t.Fatalf("batch lens = %v, want [3]", lens)
	}
	if got := ex.execs.Load(); got != 2 {
		t.Fatalf("singleton executes = %d, want 2", got)
	}
}

func TestLingerFlushesShortBatch(t *testing.T) {
	ex := &fakeExec{}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 8, Linger: 5 * time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// A lone job must not wait for a full batch: the linger expires and
	// it executes as a singleton well before any 8-job batch could form.
	start := time.Now()
	if _, err := q.Submit(context.Background(), req("minimax")); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("lone submit waited %v", wait)
	}
	if ex.batches.Load() != 0 {
		t.Fatal("lone job rode a batch")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	q, err := New(Config{Limit: 1, Depth: 2}, &fakeExec{})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	q.Close() // idempotent
	if _, err := q.Submit(context.Background(), req("minimax")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

func TestSubmitHonorsContext(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release}
	q, err := New(Config{Limit: 1, Depth: 4}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Registered after q.Close so it runs first: the dispatcher must
	// unblock before Close waits on it.
	defer close(release)
	// Plug the dispatcher, then submit with an already-cancelled ctx.
	go func() { _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Submit(ctx, req("minimax")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
}

// TestBatchPropagatesPerCallErrors proves a failed execution inside a
// batch surfaces as a Submit error, mirroring Execute's contract — not
// as a silent success with a zero Result.
func TestBatchPropagatesPerCallErrors(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release, failSize: 99}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 8, Linger: 50 * time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Backlog one healthy and one poisoned job; they ride one batch.
	var okErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, okErr = q.Submit(context.Background(), req("minimax")) }()
	go func() {
		defer wg.Done()
		bad := req("minimax")
		bad.State.Size = 99
		_, badErr = q.Submit(context.Background(), bad)
	}()
	for q.Queued() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := ex.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1 (batch lens %v)", got, ex.batchLen)
	}
	if okErr != nil {
		t.Fatalf("healthy batch member: %v", okErr)
	}
	if badErr == nil {
		t.Fatal("failed batch member returned err = nil (silent empty success)")
	}
}

// TestCancelledJobDoesNotPoisonBatch enqueues a job, cancels it, then
// backlogs live followers behind it: the dead job must be dropped with
// its own ctx.Err() instead of leading the batch on a cancelled
// context and sinking every follower.
func TestCancelledJobDoesNotPoisonBatch(t *testing.T) {
	release := make(chan struct{})
	ex := &fakeExec{release: release}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 8, Linger: 50 * time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	// First in the queue — the would-be batch lead — then cancelled.
	cctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(cctx, req("minimax")) }()
	for q.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// Live followers stuck behind the dead lead.
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _, errs[i] = q.Submit(context.Background(), req("minimax")) }(i)
	}
	for q.Queued() < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("follower %d behind cancelled lead: %v", i, err)
		}
	}
}

func TestErrQueueFullClassifiesClientSide(t *testing.T) {
	// The serving contract: the typed rejection must survive rpc's
	// queue-full classifier so retries pick the short backoff.
	if !rpc.IsQueueFull(ErrQueueFull) {
		t.Fatal("rpc.IsQueueFull(ErrQueueFull) = false")
	}
}

func TestSubmitTimedBreakdown(t *testing.T) {
	// One busy dispatcher: the second job measurably waits in the
	// queue; with batching on, the lead also pays the linger window.
	release := make(chan struct{})
	fe := &fakeExec{release: release}
	q, err := New(Config{Limit: 1, Depth: 8, MaxBatch: 4, Linger: 5 * time.Millisecond}, fe)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	var timing Timing
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, timing, _ = q.SubmitTimed(context.Background(), req("sieve"))
	}()
	for q.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	// Hold the follower queued for a visible interval before release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if timing.QueueMs < 10 {
		t.Fatalf("QueueMs = %v, want >= 10 (job waited ~20ms behind a busy dispatcher)", timing.QueueMs)
	}
	if timing.LingerMs < 4 {
		t.Fatalf("LingerMs = %v, want >= 4 (lead pays the 5ms fill window)", timing.LingerMs)
	}
	if timing.QueueMs > 5_000 || timing.LingerMs > 5_000 {
		t.Fatalf("implausible timing %+v", timing)
	}
}

func TestSubmitTimedZeroOnReject(t *testing.T) {
	release := make(chan struct{})
	q, err := New(Config{Limit: 1, Depth: 1}, &fakeExec{release: release})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Executing() == 0 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = q.Submit(context.Background(), req("plug")) }()
	for q.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	_, timing, err := q.SubmitTimed(context.Background(), req("plug"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected queue-full rejection, got %v", err)
	}
	if timing != (Timing{}) {
		t.Fatalf("rejected submit reported timing %+v", timing)
	}
	close(release)
	wg.Wait()
}

// keepExec keeps the State.Data of every request it executes.
type keepExec struct {
	mu   sync.Mutex
	kept [][]byte
}

func (k *keepExec) Execute(_ context.Context, r rpc.ExecuteRequest) (rpc.ExecuteResponse, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.kept = append(k.kept, r.State.Data)
	return rpc.ExecuteResponse{}, nil
}

func (k *keepExec) ExecuteBatch(ctx context.Context, rs []rpc.ExecuteRequest) ([]rpc.ExecuteResponse, error) {
	for _, r := range rs {
		_, _ = k.Execute(ctx, r)
	}
	return make([]rpc.ExecuteResponse, len(rs)), nil
}

// TestQueueOwnsWhatItHolds: Submit copies the state it admits, alone or
// batched, so a job never shares bytes with its caller — who may hand
// them back to a pool as soon as Submit returns, even while the job is
// still queued.
func TestQueueOwnsWhatItHolds(t *testing.T) {
	ex := &keepExec{}
	q, err := New(Config{Limit: 1, Depth: 16, MaxBatch: 4, Linger: time.Millisecond}, ex)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const calls = 12
	sent := make([][]byte, calls)
	var wg sync.WaitGroup
	for i := range sent {
		sent[i] = []byte{byte(i), 1, 2, 3}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), rpc.ExecuteRequest{State: tasks.State{Task: "t", Data: sent[i]}}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(ex.kept) != calls {
		t.Fatalf("%d executions, want %d", len(ex.kept), calls)
	}
	for _, got := range ex.kept {
		i := int(got[0])
		if !bytes.Equal(got, sent[i]) {
			t.Fatalf("call %d executed with %v, sent %v", i, got, sent[i])
		}
		if unsafe.SliceData(got) == unsafe.SliceData(sent[i]) {
			t.Fatalf("call %d executed on its caller's bytes", i)
		}
	}
}
