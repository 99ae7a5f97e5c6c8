package tasks

import (
	"math"
	"sync"
)

// maxArenaBytes caps the memory one arena keeps between calls. A request
// that would grow it past the cap gets its slice from the heap, and that
// slice is not kept.
const maxArenaBytes = 1 << 20

// An arena is the scratch memory of one Execute: the decoded state's
// arrays and the kernel's tables come from it, and when Execute returns
// the arena is reset and goes back to the pool for the next call on this
// P. It hands out zeroed slices whose capacity ends at their length, so
// an append cannot reach a neighbour. Nothing that outlives the call may
// live in it: Result.Data is marshalled into fresh bytes, errors format
// numbers, and inference weights stay in modelCache.
//
// A nil *arena is valid and allocates every slice from the heap.
type arena struct {
	ints  []int
	fls   []float64
	cplx  []complex128
	words []uint64
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// poisonArenas makes reset overwrite everything the arena handed out, so
// that a slice kept past its call reads garbage. Only tests set it.
var poisonArenas bool

// execute runs a task's body on an arena borrowed from the pool; the
// arena goes back, reset, when the body returns or panics.
func execute(st State, body func(*arena, State) (Result, error)) (Result, error) {
	a := arenas.Get().(*arena)
	defer a.release()
	return body(a, st)
}

func (a *arena) release() {
	a.reset()
	arenas.Put(a)
}

func (a *arena) reset() {
	if poisonArenas {
		poison(a.ints, -0x5a5a5a5a5a5a5a5a)
		poison(a.fls, math.NaN())
		poison(a.cplx, complex(math.NaN(), math.NaN()))
		poison(a.words, 0x5a5a5a5a5a5a5a5a)
	}
	a.ints, a.fls, a.cplx, a.words = a.ints[:0], a.fls[:0], a.cplx[:0], a.words[:0]
}

func poison[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// keptBytes is what the arena holds on to between calls.
func (a *arena) keptBytes() int {
	return 8*(cap(a.ints)+cap(a.fls)+cap(a.words)) + 16*cap(a.cplx)
}

func (a *arena) intSlice(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return take(a, &a.ints, n, 8)
}

func (a *arena) floatSlice(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return take(a, &a.fls, n, 8)
}

func (a *arena) complexSlice(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	return take(a, &a.cplx, n, 16)
}

func (a *arena) wordSlice(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return take(a, &a.words, n, 8)
}

// take hands out n zeroed elements of the region r, whose elements are
// size bytes. The region's length is what this call has handed out so
// far. A region too small is replaced by one twice as large, or as large
// as the cap allows, and the request is served from its start; the
// slices already handed out keep the old one alive until the call ends.
// A request the cap cannot hold comes from the heap.
func take[T any](a *arena, r *[]T, n, size int) []T {
	used := len(*r)
	if n <= cap(*r)-used {
		s := (*r)[used : used+n : used+n]
		clear(s)
		*r = (*r)[:used+n]
		return s
	}
	free := (maxArenaBytes-a.keptBytes())/size + cap(*r)
	grown := min(max(2*cap(*r), used+n), free)
	if grown < n {
		return make([]T, n)
	}
	region := make([]T, n, grown)
	*r = region
	return region[:n:n]
}
