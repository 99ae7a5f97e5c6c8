package tasks

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// Every test of the package runs with poisoned arenas: a slice kept past
// its call, or a kernel that reads memory it did not write, sees garbage.
func TestMain(m *testing.M) {
	poisonArenas = true
	os.Exit(m.Run())
}

// runOn runs t's body on a as Execute runs it on a pooled arena: a is
// reset when the body returns or panics, and a panic becomes the error.
func runOn(a *arena, t Task, st State) (res Result, err error) {
	defer a.reset()
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("panic: %v", r)
		}
	}()
	return t.(interface {
		run(*arena, State) (Result, error)
	}).run(a, st)
}

// panicky dirties arena memory of every kind and panics half way.
type panicky struct{ Fibonacci }

func (panicky) run(a *arena, _ State) (Result, error) {
	xs := a.intSlice(4096)
	for i := range xs {
		xs[i] = i + 1
	}
	fs := a.floatSlice(4096)
	for i := range fs {
		fs[i] = 1
	}
	a.complexSlice(1024)[7] = 1
	a.wordSlice(2048)[9] = 1
	panic("panicky: half way")
}

// TestArenaDifferential runs every task of the three pools on the
// differential inputs twice: on a fresh arena per call, and on one
// poisoned arena reused across two shuffled passes that also run states
// larger than the cap and a task that panics. Results and error texts
// must be byte-identical.
func TestArenaDifferential(t *testing.T) {
	inputs := differentialInputs(t)
	pool := allTasks(t)
	run := func(a *arena, st State) string {
		task, err := pool.ByName(st.Task)
		if err != nil {
			t.Fatal(err)
		}
		return goldenLine(runOn(a, task, st))
	}
	fresh := make([]string, len(inputs))
	for i, st := range inputs {
		fresh[i] = run(new(arena), st)
	}
	reused := new(arena)
	r := rand.New(rand.NewSource(5))
	for pass := 0; pass < 2; pass++ {
		order := r.Perm(len(inputs))
		for k, i := range order {
			if k == len(order)/2 {
				if _, err := runOn(reused, panicky{}, State{}); err == nil {
					t.Fatal("panicky did not panic")
				}
			}
			if got := run(reused, inputs[i]); got != fresh[i] {
				t.Errorf("pass %d, input %d (%s, size %d) on the reused arena:\n got %s\nwant %s",
					pass, i, inputs[i].Task, inputs[i].Size, got, fresh[i])
			}
		}
	}
	if kept := reused.keptBytes(); kept > maxArenaBytes {
		t.Errorf("the reused arena keeps %d B, cap %d", kept, maxArenaBytes)
	}
}

// TestArenaHandsOutZeroedDisjointSlices: what reset poisons comes back
// zeroed, and no slice can grow into its neighbour.
func TestArenaHandsOutZeroedDisjointSlices(t *testing.T) {
	a := new(arena)
	for round := 0; round < 3; round++ {
		xs, ys := a.intSlice(100), a.intSlice(50)
		fs, cs, ws := a.floatSlice(30), a.complexSlice(20), a.wordSlice(10)
		for _, s := range [][]int{xs, ys} {
			if cap(s) != len(s) {
				t.Fatalf("round %d: a slice of %d has capacity %d", round, len(s), cap(s))
			}
			for _, v := range s {
				if v != 0 {
					t.Fatalf("round %d: handed out %d, want 0", round, v)
				}
			}
		}
		for i := range fs {
			if fs[i] != 0 || cs[i%len(cs)] != 0 || ws[i%len(ws)] != 0 {
				t.Fatalf("round %d: handed out non-zero memory", round)
			}
		}
		for i := range xs {
			xs[i] = 1
		}
		_ = append(xs, 2)
		if ys[0] != 0 {
			t.Fatal("an append ran into the next slice")
		}
		a.reset()
		if !math.IsNaN(fs[0]) || ys[0] == 0 || ws[0] == 0 {
			t.Fatal("reset did not poison what the arena handed out")
		}
	}
}

// TestArenaKeepsAtMostTheCap: states at the hostile bounds execute
// correctly on an arena warmed at the benchmark's sizes and leave it at or
// under the cap; what they took from the heap is not kept.
func TestArenaKeepsAtMostTheCap(t *testing.T) {
	a := new(arena)
	for _, e := range executeSizes {
		st, err := e.task.Generate(rand.New(rand.NewSource(1)), e.size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOn(a, e.task, st); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		task       Task
		data, want string
	}{
		{Sieve{}, fmt.Sprintf(`{"limit":%d}`, maxSieveLimit), `{"primes":1077871}`},
		{Knapsack{}, fmt.Sprintf(`{"capacity":%d,"weights":[3,5,7],"values":[4,7,9]}`, maxKnapsackCapacity), `{"best":20}`},
	} {
		res, err := runOn(a, c.task, State{Task: c.task.Name(), Data: []byte(c.data)})
		if err != nil {
			t.Fatalf("%s %s: %v", c.task.Name(), c.data, err)
		}
		if string(res.Data) != c.want {
			t.Errorf("%s %s = %s, want %s", c.task.Name(), c.data, res.Data, c.want)
		}
		if kept := a.keptBytes(); kept > maxArenaBytes {
			t.Errorf("after %s %s the arena keeps %d B, cap %d", c.task.Name(), c.data, kept, maxArenaBytes)
		}
	}
}
