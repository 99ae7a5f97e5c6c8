// Package tasks implements the simulator's pool of offloadable
// computations (§V: "a pool of common algorithms found in apps, e.g.,
// quicksort, bubblesort"). Each task follows the paper's homogeneous
// offloading model: the application state is serializable, can be shipped
// over the network, reconstructed remotely, and executed there — or
// executed locally when there is no connectivity.
//
// Every execution reports an operation count, which grounds the
// simulation's analytic cost model (Work) in the actual computations.
package tasks

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// State is the serializable application state of one offloadable method
// invocation (the "AS" of Fig 1a).
type State struct {
	Task string          `json:"task"`
	Size int             `json:"size"`
	Data json.RawMessage `json:"data"`
}

// Result is the serializable outcome of executing a State.
type Result struct {
	Task string          `json:"task"`
	Data json.RawMessage `json:"data"`
	// Ops counts the dominant primitive operations performed, used to
	// validate the analytic Work model.
	Ops int64 `json:"ops"`
}

// Task is one offloadable computation from the pool.
type Task interface {
	// Name is the unique registry key of the task.
	Name() string
	// Generate builds a random application state of the given size.
	Generate(r *rand.Rand, size int) (State, error)
	// Execute reconstructs the state and runs the computation.
	Execute(st State) (Result, error)
	// Work estimates the number of abstract work units a state of the
	// given size costs. The simulation divides Work by a server's
	// effective speed to obtain service times.
	Work(size int) float64
}

// ErrUnknownTask is returned when a state names a task that is not in the
// registry.
var ErrUnknownTask = errors.New("tasks: unknown task")

// Pool is an immutable, ordered registry of tasks (the APKs pushed into
// the surrogate).
type Pool struct {
	byName map[string]Task
	order  []string
}

// NewPool builds a pool from the given tasks. Duplicate names are
// rejected.
func NewPool(ts ...Task) (*Pool, error) {
	p := &Pool{byName: make(map[string]Task, len(ts))}
	for _, t := range ts {
		if t == nil {
			return nil, errors.New("tasks: nil task")
		}
		name := t.Name()
		if _, dup := p.byName[name]; dup {
			return nil, fmt.Errorf("tasks: duplicate task %q", name)
		}
		p.byName[name] = t
		p.order = append(p.order, name)
	}
	return p, nil
}

// DefaultPool returns the paper's 10-task pool.
func DefaultPool() *Pool {
	p, err := NewPool(
		Quicksort{}, Bubblesort{}, Mergesort{},
		Minimax{}, NQueens{},
		Fibonacci{}, MatMul{}, Knapsack{}, Sieve{}, FFT{},
	)
	if err != nil {
		// The default pool is a fixed literal; a failure here is a
		// programming error, acceptable to surface at startup.
		panic(err)
	}
	return p
}

// Names returns the registered task names in registration order.
func (p *Pool) Names() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// Len reports the number of registered tasks.
func (p *Pool) Len() int { return len(p.order) }

// ByName fetches a task by registry key.
func (p *Pool) ByName(name string) (Task, error) {
	t, ok := p.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTask, name)
	}
	return t, nil
}

// Random picks a task uniformly at random, mirroring the simulator's
// concurrent mode which draws each request's task from the pool.
func (p *Pool) Random(r *rand.Rand) Task {
	return p.byName[p.order[r.Intn(len(p.order))]]
}

// Execute routes a state to its task and runs it.
func (p *Pool) Execute(st State) (Result, error) {
	t, err := p.ByName(st.Task)
	if err != nil {
		return Result{}, err
	}
	return t.Execute(st)
}

// Work routes a (task, size) pair to the task's analytic cost model.
func (p *Pool) Work(name string, size int) (float64, error) {
	t, err := p.ByName(name)
	if err != nil {
		return 0, err
	}
	return t.Work(size), nil
}

// --- shared helpers -------------------------------------------------------

func marshalState(task string, size int, data any) (State, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return State{}, fmt.Errorf("tasks: marshal %s state: %w", task, err)
	}
	return State{Task: task, Size: size, Data: raw}, nil
}

// unmarshalState decodes st into the state struct behind into; the fast
// path takes the arrays from a (nil: the heap), the encoding/json
// fallback always from the heap.
func unmarshalState(a *arena, st State, task string, into any) error {
	if st.Task != task {
		return fmt.Errorf("tasks: state for %q routed to %q", st.Task, task)
	}
	if decodeState(a, st.Data, into) {
		return nil
	}
	// Whatever the fast path declined, valid or not, is encoding/json's.
	if err := json.Unmarshal(st.Data, into); err != nil {
		return fmt.Errorf("tasks: unmarshal %s state: %w", task, err)
	}
	return nil
}

func marshalResult(task string, ops int64, data any) (Result, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Result{}, fmt.Errorf("tasks: marshal %s result: %w", task, err)
	}
	return Result{Task: task, Data: raw, Ops: ops}, nil
}

func randomInts(r *rand.Rand, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Intn(1 << 20)
	}
	return xs
}

func isSorted(xs []int) bool { return sort.IntsAreSorted(xs) }

func nLogN(n int) float64 {
	if n <= 1 {
		return 1
	}
	return float64(n) * math.Log2(float64(n))
}
