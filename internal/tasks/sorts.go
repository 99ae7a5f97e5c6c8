package tasks

import (
	"fmt"
	"math/rand"
)

// sortState is the serialized application state shared by the sorting
// tasks.
type sortState struct {
	Values []int `json:"values"`
}

// sortResult reports a verification digest instead of echoing the sorted
// slice, keeping responses small the way an offloading system would.
type sortResult struct {
	Sorted   bool  `json:"sorted"`
	Checksum int64 `json:"checksum"`
	First    int   `json:"first"`
	Last     int   `json:"last"`
}

func checksumInts(xs []int) int64 {
	var sum int64
	for i, x := range xs {
		sum += int64(x) * int64(i+1)
	}
	return sum
}

func finishSort(task string, xs []int, ops int64) (Result, error) {
	if !isSorted(xs) {
		return Result{}, fmt.Errorf("tasks: %s produced unsorted output", task)
	}
	res := sortResult{Sorted: true, Checksum: checksumInts(xs)}
	if len(xs) > 0 {
		res.First, res.Last = xs[0], xs[len(xs)-1]
	}
	return marshalResult(task, ops, res)
}

// Quicksort sorts random integers with an in-place randomized-pivot
// quicksort. Work ≈ n·log2 n.
type Quicksort struct{}

var _ Task = Quicksort{}

// Name implements Task.
func (Quicksort) Name() string { return "quicksort" }

// Generate implements Task.
func (Quicksort) Generate(r *rand.Rand, size int) (State, error) {
	if size < 0 {
		return State{}, fmt.Errorf("tasks: quicksort size %d < 0", size)
	}
	return marshalState("quicksort", size, sortState{Values: randomInts(r, size)})
}

// Execute implements Task.
func (t Quicksort) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Quicksort) run(a *arena, st State) (Result, error) {
	var in sortState
	if err := unmarshalState(a, st, "quicksort", &in); err != nil {
		return Result{}, err
	}
	xs := in.Values
	var ops int64
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 1 {
			// Median-of-three pivot keeps the deterministic
			// implementation near n log n on adversarial inputs.
			mid := lo + (hi-lo)/2
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
			if xs[hi-1] < xs[lo] {
				xs[hi-1], xs[lo] = xs[lo], xs[hi-1]
			}
			if xs[hi-1] < xs[mid] {
				xs[hi-1], xs[mid] = xs[mid], xs[hi-1]
			}
			pivot := xs[mid]
			i, j := lo, hi-1
			for i <= j {
				for xs[i] < pivot {
					i++
					ops++
				}
				for xs[j] > pivot {
					j--
					ops++
				}
				ops++
				if i <= j {
					xs[i], xs[j] = xs[j], xs[i]
					i++
					j--
				}
			}
			// Recurse into the smaller side to bound stack depth.
			if j-lo < hi-i {
				qs(lo, j+1)
				lo = i
			} else {
				qs(i, hi)
				hi = j + 1
			}
		}
	}
	qs(0, len(xs))
	return finishSort("quicksort", xs, ops)
}

// Work implements Task.
func (Quicksort) Work(size int) float64 { return 2 * nLogN(size) }

// Bubblesort is the deliberately expensive O(n^2) member of the pool: the
// paper uses it to create heavy compute per request.
type Bubblesort struct{}

var _ Task = Bubblesort{}

// Name implements Task.
func (Bubblesort) Name() string { return "bubblesort" }

// Generate implements Task.
func (Bubblesort) Generate(r *rand.Rand, size int) (State, error) {
	if size < 0 {
		return State{}, fmt.Errorf("tasks: bubblesort size %d < 0", size)
	}
	return marshalState("bubblesort", size, sortState{Values: randomInts(r, size)})
}

// Execute implements Task.
func (t Bubblesort) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Bubblesort) run(a *arena, st State) (Result, error) {
	var in sortState
	if err := unmarshalState(a, st, "bubblesort", &in); err != nil {
		return Result{}, err
	}
	xs := in.Values
	var ops int64
	for n := len(xs); n > 1; {
		newN := 0
		for i := 1; i < n; i++ {
			ops++
			if xs[i-1] > xs[i] {
				xs[i-1], xs[i] = xs[i], xs[i-1]
				newN = i
			}
		}
		n = newN
	}
	return finishSort("bubblesort", xs, ops)
}

// Work implements Task.
func (Bubblesort) Work(size int) float64 { return 0.5 * float64(size) * float64(size) }

// Mergesort is the stable O(n log n) comparison sort of the pool.
type Mergesort struct{}

var _ Task = Mergesort{}

// Name implements Task.
func (Mergesort) Name() string { return "mergesort" }

// Generate implements Task.
func (Mergesort) Generate(r *rand.Rand, size int) (State, error) {
	if size < 0 {
		return State{}, fmt.Errorf("tasks: mergesort size %d < 0", size)
	}
	return marshalState("mergesort", size, sortState{Values: randomInts(r, size)})
}

// Execute implements Task.
func (t Mergesort) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Mergesort) run(a *arena, st State) (Result, error) {
	var in sortState
	if err := unmarshalState(a, st, "mergesort", &in); err != nil {
		return Result{}, err
	}
	xs := in.Values
	buf := a.intSlice(len(xs))
	var ops int64
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		mid := lo + (hi-lo)/2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			ops++
			if xs[i] <= xs[j] {
				buf[k] = xs[i]
				i++
			} else {
				buf[k] = xs[j]
				j++
			}
			k++
		}
		for i < mid {
			buf[k] = xs[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = xs[j]
			j++
			k++
		}
		copy(xs[lo:hi], buf[lo:hi])
	}
	ms(0, len(xs))
	return finishSort("mergesort", xs, ops)
}

// Work implements Task.
func (Mergesort) Work(size int) float64 { return nLogN(size) }
