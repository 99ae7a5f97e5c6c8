package dalvik

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/testkit"
)

func newLoaded(t *testing.T) *Surrogate {
	t.Helper()
	s, err := NewSurrogate("dalvik-x86-test", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushPool(tasks.DefaultPool()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSurrogateValidation(t *testing.T) {
	if _, err := NewSurrogate("", 1); err == nil {
		t.Fatal("empty name should fail")
	}
	s, err := NewSurrogate("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap(s.slots) != DefaultMaxProcs {
		t.Fatalf("default slots = %d, want %d", cap(s.slots), DefaultMaxProcs)
	}
	if s.Name() != "x" {
		t.Fatal("name wrong")
	}
}

func TestPush(t *testing.T) {
	s, err := NewSurrogate("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(tasks.Quicksort{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(tasks.Quicksort{}); err == nil {
		t.Fatal("duplicate push should fail")
	}
	if err := s.Push(nil); err == nil {
		t.Fatal("nil task should fail")
	}
	installed := s.Installed()
	if len(installed) != 1 || installed[0] != "quicksort" {
		t.Fatalf("installed = %v", installed)
	}
}

func TestExecuteRoundTrip(t *testing.T) {
	s := newLoaded(t)
	r := sim.NewRNG(1).Stream("gen")
	st, err := tasks.Quicksort{}.Generate(r, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, elapsed, err := s.Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Task != "quicksort" || res.Ops <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	stats := s.Stats()
	if stats.Executed != 1 || stats.Failed != 0 || stats.Rejected != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestExecuteUnknownTask(t *testing.T) {
	s, err := NewSurrogate("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Execute(tasks.State{Task: "ghost"})
	if !errors.Is(err, tasks.ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestExecuteConcurrent(t *testing.T) {
	s := newLoaded(t)
	r := sim.NewRNG(2).Stream("gen")
	states := make([]tasks.State, 32)
	for i := range states {
		st, err := tasks.Sieve{}.Generate(r, 3)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	var wg sync.WaitGroup
	errs := make([]error, len(states))
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Execute(states[i])
		}(i)
	}
	wg.Wait()
	executed := 0
	for _, err := range errs {
		if err == nil {
			executed++
		}
	}
	st := s.Stats()
	if int(st.Executed) != executed {
		t.Fatalf("stats executed %d vs %d successes", st.Executed, executed)
	}
	// With 8 slots and 32 fast tasks, most should succeed; rejected ones
	// must be accounted.
	if int(st.Executed+st.Rejected+st.Failed) != len(states) {
		t.Fatalf("accounting broken: %+v for %d requests", st, len(states))
	}
}

// TestOversizedBodyIsBadRequest: a well-formed JSON body one byte over
// rpc's 8 MiB bound is refused as too large with a 400 — not cut short
// into a syntax error about its prefix.
func TestOversizedBodyIsBadRequest(t *testing.T) {
	srv := httptest.NewServer(newLoaded(t).Handler())
	defer srv.Close()
	const maxBody = 8 << 20
	const open, closing = `{"pad":"`, `"}`
	body := open + strings.Repeat("a", maxBody+1-len(open)-len(closing)) + closing
	resp, err := http.Post(srv.URL+rpc.PathExecute, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out rpc.ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "body exceeds") {
		t.Fatalf("body of 8 MiB + 1: status %d, error %q", resp.StatusCode, out.Error)
	}
}

// TestJSONExecuteAllocationBudget: one rpc.Client.Execute round trip
// over JSON to an in-process surrogate, both ends counted.
func TestJSONExecuteAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	c := dial(t, "http", newLoaded(t))
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(1).Stream("gen"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	execute := func() {
		if _, err := c.Execute(ctx, rpc.ExecuteRequest{State: st}); err != nil {
			t.Fatal(err)
		}
	}
	execute()
	if n := testing.AllocsPerRun(1000, execute); n > 122 {
		t.Errorf("rpc.Client.Execute over JSON allocates %.1f per call, budget 122", n)
	}
}

func TestHTTPHandler(t *testing.T) {
	s := newLoaded(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := rpc.NewClient(srv.URL)
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	r := sim.NewRNG(3).Stream("gen")
	st, err := tasks.NQueens{}.Generate(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Execute(ctx, rpc.ExecuteRequest{State: st})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if resp.Server != "dalvik-x86-test" || resp.Result.Task != "nqueens" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.CloudMs < 0 {
		t.Fatalf("cloudMs = %v", resp.CloudMs)
	}
	// Unknown task travels back as a remote error.
	if _, err := client.Execute(ctx, rpc.ExecuteRequest{State: tasks.State{Task: "ghost"}}); err == nil {
		t.Fatal("unknown task should error")
	}
}

// named is a task under any name that always succeeds.
type named struct {
	tasks.Fibonacci
	name string
}

func (n named) Name() string { return n.name }

func (n named) Execute(tasks.State) (tasks.Result, error) {
	return tasks.Result{Task: n.name, Ops: 1}, nil
}

// gated holds its worker slot until open is closed.
type gated struct {
	tasks.Fibonacci
	entered, open chan struct{}
}

func (gated) Name() string { return "gated" }

func (g gated) Execute(tasks.State) (tasks.Result, error) {
	g.entered <- struct{}{}
	<-g.open
	return tasks.Result{Task: "gated", Ops: 1}, nil
}

// TestStatsExactUnderConcurrentPush: 64 goroutines run good, unknown-task
// and slot-rejected calls while Push adds tasks; every call's outcome, as
// its caller sees it, is counted exactly once in Stats.
func TestStatsExactUnderConcurrentPush(t *testing.T) {
	const slots, callers, calls, pushes = 4, 64, 40, 32
	s, err := NewSurrogate("x", slots)
	if err != nil {
		t.Fatal(err)
	}
	g := gated{entered: make(chan struct{}), open: make(chan struct{})}
	for _, task := range []tasks.Task{g, tasks.Fibonacci{}} {
		if err := s.Push(task); err != nil {
			t.Fatal(err)
		}
	}
	fib, err := tasks.Fibonacci{}.Generate(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var executed, failed, rejected atomic.Int64
	count := func(err error) {
		switch {
		case err == nil:
			executed.Add(1)
		case strings.Contains(err.Error(), "worker slots busy"):
			rejected.Add(1)
		default:
			failed.Add(1)
		}
	}
	// storm runs the callers while Push adds the round's extra tasks; they
	// call fibonacci, extra tasks whether pushed yet or not, and a name
	// that never is.
	storm := func(round int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				if err := s.Push(named{name: fmt.Sprintf("extra-%d-%d", round, i)}); err != nil {
					t.Error(err)
				}
			}
		}()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					st := fib
					switch (c + i) % 3 {
					case 1:
						st = tasks.State{Task: fmt.Sprintf("extra-%d-%d", round, (c*i)%(2*pushes))}
					case 2:
						st = tasks.State{Task: "ghost"}
					}
					_, _, err := s.Execute(st)
					count(err)
				}
			}(c)
		}
		wg.Wait()
	}

	// Round 0 runs with every slot held, so all of its calls are rejected.
	holders := make(chan error, slots)
	for i := 0; i < slots; i++ {
		go func() {
			_, _, err := s.Execute(tasks.State{Task: "gated"})
			holders <- err
		}()
		<-g.entered
	}
	storm(0)
	close(g.open)
	for i := 0; i < slots; i++ {
		count(<-holders)
	}
	if got := rejected.Load(); got != callers*calls {
		t.Fatalf("with every slot held, %d of %d calls were rejected", got, callers*calls)
	}
	storm(1)

	want := Stats{Executed: executed.Load(), Failed: failed.Load(), Rejected: rejected.Load()}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats = %+v, callers saw %+v", got, want)
	}
	if want.Executed <= slots || want.Failed == 0 {
		t.Fatalf("the storm did not run every outcome: %+v", want)
	}
	if n := len(s.Installed()); n != 2+2*pushes {
		t.Fatalf("%d tasks installed, want %d", n, 2+2*pushes)
	}
}
