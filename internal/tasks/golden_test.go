package tasks

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// differentialInputs are the seeded states the results golden file and the
// arena tests run: every task of DefaultPool, ExtendedPool and
// InferencePool at the benchmark's sizes and at small ones, two states
// whose arrays are larger than an arena keeps, and states each task
// rejects, so that error texts are pinned too.
func differentialInputs(t testing.TB) []State {
	t.Helper()
	r := rand.New(rand.NewSource(32))
	var out []State
	gen := func(task Task, size int) State {
		st, err := task.Generate(r, size)
		if err != nil {
			t.Fatalf("generate %s(%d): %v", task.Name(), size, err)
		}
		out = append(out, st)
		return st
	}
	for _, e := range executeSizes {
		gen(e.task, e.size)
		gen(e.task, 1+r.Intn(24))
	}
	gen(ParMatMul{}, 24)
	gen(ParMatMul{}, 5)
	for _, task := range InferenceTasks() {
		steady := gen(task, 4)
		if err := ClearSessionStart(&steady); err != nil {
			t.Fatal(err)
		}
		out = append(out, steady)
		gen(task, 1)
	}
	gen(Mergesort{}, 140000)
	for _, c := range []struct{ task, data string }{
		{"knapsack", `{"capacity":262144,"weights":[3,5,7],"values":[4,7,9]}`},
		{"knapsack", `{"capacity":5,"weights":[1],"values":[1,2]}`},
		{"fft", `{"re":[1,2,3],"im":[0,0,0]}`},
		{"matmul", `{"n":2,"a":[1],"b":[1]}`},
		{"parmatmul", `{"n":2,"a":[1,2,3,4],"b":[1,2]}`},
		{"quicksort", `{"values":[1,"x"]}`},
		{"sieve", `{"limit":-1}`},
		{"minimax", `{"board":[0],"m":3,"k":3,"turn":1}`},
		{"infer-lstm", `{"model":"lstm","batch":2,"in":[1]}`},
	} {
		out = append(out, State{Task: c.task, Data: []byte(c.data)})
	}
	return out
}

// goldenLine is one line of testdata/results.golden: the Result's Task,
// Ops and Data bytes, or the error text.
func goldenLine(res Result, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	return fmt.Sprintf("ok %s %d %s", res.Task, res.Ops, res.Data)
}

// allTasks is the union of the three pools.
func allTasks(t testing.TB) *Pool {
	t.Helper()
	ts := []Task{ParMatMul{}}
	inf := InferencePool()
	for _, name := range inf.Names() {
		task, err := inf.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, task)
	}
	p, err := NewPool(ts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestResultsMatchGolden pins every Result of the differential inputs to
// the bytes the package produced before Execute ran on arenas: called in
// order, then from four goroutines at once, each in its own order, so
// that pooled arenas pass between goroutines.
func TestResultsMatchGolden(t *testing.T) {
	f, err := os.Open("testdata/results.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	inputs := differentialInputs(t)
	if len(want) != len(inputs) {
		t.Fatalf("results.golden has %d lines for %d inputs", len(want), len(inputs))
	}
	pool := allTasks(t)
	check := func(i int) {
		st := inputs[i]
		if got := goldenLine(pool.Execute(st)); got != want[i] {
			t.Errorf("input %d (%s, size %d):\n got %s\nwant %s", i, st.Task, st.Size, got, want[i])
		}
	}
	for i := range inputs {
		check(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(inputs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				check(i)
			}
		}()
	}
	wg.Wait()
}
