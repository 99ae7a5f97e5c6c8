package tasks

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// The paper's §VII-1 notes that a task "may be unable to take advantage
// of the computational resources of a particular server" — the
// acceleration limit — and that "this limit can be surpassed by applying
// techniques of code parallelization", which it leaves as future work.
// This file implements that extension: tasks that declare (and actually
// exploit) intra-task parallelism.

// Parallelizable is implemented by tasks whose code can use more than
// one core.
type Parallelizable interface {
	Task
	// Parallelism reports how many cores a state of the given size can
	// exploit.
	Parallelism(size int) int
}

// ParMatMul is the parallel dense matrix multiplication: row blocks are
// computed by a bounded worker pool. Work is the same n³ as MatMul; the
// simulation lets it consume up to Parallelism(size) cores.
type ParMatMul struct{}

var _ Parallelizable = ParMatMul{}

// Name implements Task.
func (ParMatMul) Name() string { return "parmatmul" }

// Generate implements Task (same state shape as matmul).
func (ParMatMul) Generate(r *rand.Rand, size int) (State, error) {
	n := size
	if n < 1 {
		n = 1
	}
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = r.Float64()*2 - 1
		b[i] = r.Float64()*2 - 1
	}
	return marshalState("parmatmul", size, matmulState{N: n, A: a, B: b})
}

// Parallelism implements Parallelizable: one worker per 8 rows, capped at
// 16 — splitting finer than that drowns in merge overhead (§VII-1's
// "optimal splitting" issue).
func (ParMatMul) Parallelism(size int) int {
	p := size / 8
	if p < 1 {
		p = 1
	}
	if p > 16 {
		p = 16
	}
	return p
}

// Execute implements Task with a real goroutine worker pool.
func (t ParMatMul) Execute(st State) (Result, error) { return execute(st, t.run) }

func (t ParMatMul) run(a *arena, st State) (Result, error) {
	var in matmulState
	if err := unmarshalState(a, st, "parmatmul", &in); err != nil {
		return Result{}, err
	}
	n := in.N
	if n < 1 || n > maxMatMulN || len(in.A) != n*n || len(in.B) != n*n {
		return Result{}, fmt.Errorf("tasks: parmatmul n=%d with %d/%d elements", n, len(in.A), len(in.B))
	}
	workers := t.Parallelism(st.Size)
	if maxP := runtime.GOMAXPROCS(0); workers > maxP {
		workers = maxP
	}
	if workers < 1 {
		workers = 1
	}
	c := a.floatSlice(n * n)
	ops := make([]int64, workers)
	var wg sync.WaitGroup
	rowsPer := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		hi := lo + rowsPer
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var local int64
			for i := lo; i < hi; i++ {
				for kk := 0; kk < n; kk++ {
					aik := in.A[i*n+kk]
					for j := 0; j < n; j++ {
						c[i*n+j] += aik * in.B[kk*n+j]
						local++
					}
				}
			}
			ops[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	var total int64
	for _, o := range ops {
		total += o
	}
	var trace, norm float64
	for i := 0; i < n; i++ {
		trace += c[i*n+i]
	}
	for _, v := range c {
		norm += v * v
	}
	return marshalResult("parmatmul", total, matmulResult{Trace: trace, Norm: math.Sqrt(norm)})
}

// Work implements Task (same sequential work as matmul; the speedup comes
// from using more cores, not from doing less work).
func (ParMatMul) Work(size int) float64 {
	n := size
	if n < 1 {
		n = 1
	}
	return float64(n) * float64(n) * float64(n)
}

// ExtendedPool returns the default pool plus the parallel extension
// tasks.
func ExtendedPool() *Pool {
	base := DefaultPool()
	ts := make([]Task, 0, base.Len()+1)
	for _, name := range base.Names() {
		t, err := base.ByName(name)
		if err != nil {
			// Names come from the pool itself; a miss is impossible.
			panic(err)
		}
		ts = append(ts, t)
	}
	ts = append(ts, ParMatMul{})
	p, err := NewPool(ts...)
	if err != nil {
		panic(err)
	}
	return p
}

// ParallelismOf reports the core cap of a task at a size: 1 for serial
// tasks, the declared parallelism for Parallelizable ones.
func ParallelismOf(t Task, size int) int {
	if p, ok := t.(Parallelizable); ok {
		return p.Parallelism(size)
	}
	return 1
}
