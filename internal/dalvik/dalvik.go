// Package dalvik implements the server-side surrogate of the paper's
// homogeneous offloading model (§V): a runtime that accepts pushed code
// bundles (the paper pushes APK files into a customized Dalvik-x86) and
// executes one request per worker slot — the paper spawns one dalvikvm
// process per in-flight request so problematic requests can be isolated.
//
// Substitution note (see DESIGN.md): registered Go tasks stand in for DEX
// bytecode; the architectural contract — push bundle, execute serialized
// application state, bounded worker slots, per-request accounting — is
// preserved, and the surrogate serves the same HTTP protocol the
// front-end routes to.
package dalvik

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
	"accelcloud/internal/wire"
	"accelcloud/internal/workers"
)

// DefaultMaxProcs bounds concurrent per-request workers (dalvikvm
// processes in the paper).
const DefaultMaxProcs = 256

// Stats are the surrogate's lifetime counters.
type Stats struct {
	Executed int64 `json:"executed"`
	Failed   int64 `json:"failed"`
	Rejected int64 `json:"rejected"`
}

// Surrogate is one Dalvik-x86-like execution server. Its execute path
// takes no lock: the counters are atomics, and the registry is an
// immutable map that Push replaces.
type Surrogate struct {
	name     string
	maxProcs int

	registry                   atomic.Pointer[map[string]tasks.Task]
	executed, failed, rejected atomic.Int64

	// slots is a counting semaphore for worker processes.
	slots chan struct{}
}

// NewSurrogate creates an empty surrogate. maxProcs <= 0 selects
// DefaultMaxProcs.
func NewSurrogate(name string, maxProcs int) (*Surrogate, error) {
	if name == "" {
		return nil, errors.New("dalvik: surrogate without name")
	}
	if maxProcs <= 0 {
		maxProcs = DefaultMaxProcs
	}
	s := &Surrogate{name: name, maxProcs: maxProcs, slots: make(chan struct{}, maxProcs)}
	s.registry.Store(&map[string]tasks.Task{})
	return s, nil
}

// Name reports the surrogate identifier.
func (s *Surrogate) Name() string { return s.name }

// Push registers one task bundle (an APK in the paper: "the available APK
// files are pushed into the Dalvik-x86 as the process is waiting for a
// request").
func (s *Surrogate) Push(t tasks.Task) error {
	if t == nil {
		return errors.New("dalvik: nil task")
	}
	name := t.Name()
	for {
		old := s.registry.Load()
		if _, dup := (*old)[name]; dup {
			return fmt.Errorf("dalvik: task %q already pushed", name)
		}
		next := make(map[string]tasks.Task, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
		next[name] = t
		if s.registry.CompareAndSwap(old, &next) {
			return nil
		}
	}
}

// PushPool registers every task of a pool.
func (s *Surrogate) PushPool(p *tasks.Pool) error {
	for _, name := range p.Names() {
		t, err := p.ByName(name)
		if err != nil {
			return err
		}
		if err := s.Push(t); err != nil {
			return err
		}
	}
	return nil
}

// Installed lists the pushed bundle names, sorted.
func (s *Surrogate) Installed() []string {
	reg := *s.registry.Load()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a copy of the counters.
func (s *Surrogate) Stats() Stats {
	return Stats{Executed: s.executed.Load(), Failed: s.failed.Load(), Rejected: s.rejected.Load()}
}

// Execute runs one serialized application state on a worker slot,
// measuring Tcloud. It rejects immediately when all slots are busy
// (the saturation failure mode of Fig 8c).
func (s *Surrogate) Execute(st tasks.State) (tasks.Result, time.Duration, error) {
	select {
	case s.slots <- struct{}{}:
	default:
		s.rejected.Add(1)
		return tasks.Result{}, 0, fmt.Errorf("dalvik: %s: all %d worker slots busy", s.name, s.maxProcs)
	}
	defer func() { <-s.slots }()

	task, ok := (*s.registry.Load())[st.Task]
	if !ok {
		s.failed.Add(1)
		return tasks.Result{}, 0, fmt.Errorf("dalvik: %s: %w: %q", s.name, tasks.ErrUnknownTask, st.Task)
	}
	start := time.Now()
	res, err := run(task, st)
	elapsed := time.Since(start)
	if err != nil {
		s.failed.Add(1)
		return tasks.Result{}, elapsed, fmt.Errorf("dalvik: %s: %w", s.name, err)
	}
	s.executed.Add(1)
	return res, elapsed, nil
}

// run executes st, reporting a panic in task code as the request's error.
// The call is on a goroutine the server shares between devices (a wire
// dispatch worker over bin://), where an escaped panic ends the process
// for all of them; the paper isolates a problematic request in its own
// dalvikvm process for the same reason.
func run(task tasks.Task, st tasks.State) (res tasks.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = tasks.Result{}, fmt.Errorf("task %q panicked: %v", st.Task, r)
		}
	}()
	return task.Execute(st)
}

// ExecuteBatch runs a batch of calls concurrently on reusable workers,
// one worker slot each, writing the answer to calls[i] into out[i] —
// the serving layer's dynamic batcher lands here over either
// transport, so a batch of parallelizable tasks (ParMatMul rows,
// MatMul calls) spreads across the surrogate's slots the way the
// paper's per-request dalvikvm processes would. Per-call failures
// (unknown task, slot saturation, a panic in task code) stay inside
// each result's Error field so one bad call does not fail its
// batchmates. out must be as long as calls.
func (s *Surrogate) ExecuteBatch(ctx context.Context, calls []wire.ExecuteRequest, out []wire.ExecuteResponse) {
	workers.Each(len(calls), func(i int) { out[i] = s.respond(ctx, calls[i]) })
}

// Handler serves the surrogate protocol:
//
//	POST /execute        — run a state
//	POST /execute/batch  — run a batch of states across worker slots
//	GET  /healthz        — liveness
//	GET  /stats          — counters + installed bundles
func (s *Surrogate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(rpc.PathExecute, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rpc.WriteJSON(w, http.StatusMethodNotAllowed, rpc.ExecuteResponse{Error: "POST only"})
			return
		}
		var req rpc.ExecuteRequest
		if err := rpc.ReadJSON(r, &req); err != nil {
			rpc.WriteJSON(w, http.StatusBadRequest, rpc.ExecuteResponse{Error: err.Error()})
			return
		}
		rpc.WriteJSON(w, http.StatusOK, s.respond(r.Context(), req))
	})
	mux.HandleFunc(rpc.PathExecuteBatch, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rpc.WriteJSON(w, http.StatusMethodNotAllowed, rpc.ExecuteBatchResponse{})
			return
		}
		var req rpc.ExecuteBatchRequest
		if err := rpc.ReadJSON(r, &req); err != nil {
			rpc.WriteJSON(w, http.StatusBadRequest, rpc.ExecuteBatchResponse{})
			return
		}
		if len(req.Calls) > wire.MaxBatchCalls {
			rpc.WriteJSON(w, http.StatusBadRequest, rpc.ExecuteBatchResponse{})
			return
		}
		out := make([]rpc.ExecuteResponse, len(req.Calls))
		s.ExecuteBatch(r.Context(), req.Calls, out)
		rpc.WriteJSON(w, http.StatusOK, rpc.ExecuteBatchResponse{Results: out})
	})
	mux.HandleFunc(rpc.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		rpc.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "server": s.name})
	})
	mux.HandleFunc(rpc.PathStats, func(w http.ResponseWriter, r *http.Request) {
		rpc.WriteJSON(w, http.StatusOK, struct {
			Server    string   `json:"server"`
			Stats     Stats    `json:"stats"`
			Installed []string `json:"installed"`
		}{Server: s.name, Stats: s.Stats(), Installed: s.Installed()})
	})
	return mux
}

// respond runs one call and answers it the way both transports do:
// failures travel in the response's Error field (the HTTP handler's
// 200-with-error contract), so both protocols classify surrogate
// failures identically.
func (s *Surrogate) respond(_ context.Context, req wire.ExecuteRequest) wire.ExecuteResponse {
	res, elapsed, err := s.Execute(req.State)
	if err != nil {
		return wire.ExecuteResponse{Server: s.name, Error: err.Error()}
	}
	return wire.ExecuteResponse{
		Result:  res,
		CloudMs: float64(elapsed) / float64(time.Millisecond),
		Server:  s.name,
	}
}

// BinaryServer builds the surrogate's framed-protocol server — the
// binary counterpart of Handler, serving execute, execute-batch and
// ping frames over persistent multiplexed connections.
func (s *Surrogate) BinaryServer() *wire.Server {
	return &wire.Server{H: wire.Handlers{Execute: s.respond, ExecuteBatch: s.ExecuteBatch}}
}

// ServeBinary serves the framed protocol on lis until the listener
// fails or the returned server is Closed.
func (s *Surrogate) ServeBinary(lis net.Listener) (*wire.Server, error) {
	srv := s.BinaryServer()
	go func() { _ = srv.Serve(lis) }()
	return srv, nil
}
