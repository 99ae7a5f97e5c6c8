package tasks

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"accelcloud/internal/testkit"
)

// stateTypes is every state type of the package, by a short name the
// tables below use.
var stateTypes = []struct {
	name  string
	fresh func() any
}{
	{"sort", func() any { return new(sortState) }},
	{"minimax", func() any { return new(minimaxState) }},
	{"nqueens", func() any { return new(nqueensState) }},
	{"fib", func() any { return new(fibState) }},
	{"matmul", func() any { return new(matmulState) }},
	{"knapsack", func() any { return new(knapsackState) }},
	{"sieve", func() any { return new(sieveState) }},
	{"fft", func() any { return new(fftState) }},
	{"inference", func() any { return new(inferenceState) }},
}

func freshState(t testing.TB, name string) any {
	t.Helper()
	for _, ty := range stateTypes {
		if ty.name == name {
			return ty.fresh()
		}
	}
	t.Fatalf("no state type %q", name)
	return nil
}

// prefill holds every key of every state type, so a target decoded from
// it has no zero field: a key the input lacks must then keep its value.
const prefill = `{"values":[7,8],"board":[1],"m":5,"k":6,"turn":2,"depth":3,"n":9,` +
	`"a":[1.5],"b":[2.5],"capacity":4,"weights":[3],"limit":11,"re":[0.5],"im":[0.25],` +
	`"model":"x","batch":2,"in":[1],"load":true}`

// dirtyArena is reused, and poisoned on reset, across every input the
// decoder tests feed it.
var dirtyArena = new(arena)

// checkMatchesJSON decodes data into every state type, zeroed and
// prefilled, through unmarshalState — arrays from the heap and from
// dirtyArena — and through plain json.Unmarshal, and requires the same
// error and the same target.
func checkMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	for _, ty := range stateTypes {
		for _, a := range []*arena{nil, dirtyArena} {
			for _, filled := range []bool{false, true} {
				got, want := ty.fresh(), ty.fresh()
				if filled {
					for _, target := range []any{got, want} {
						if err := json.Unmarshal([]byte(prefill), target); err != nil {
							t.Fatal(err)
						}
					}
				}
				gotErr := unmarshalState(a, State{Task: "t", Data: data}, "t", got)
				wantErr := json.Unmarshal(data, want)
				switch {
				case (gotErr == nil) != (wantErr == nil):
					t.Errorf("%s (prefilled %v, arena %v) %q: unmarshalState error %v, json.Unmarshal error %v",
						ty.name, filled, a != nil, data, gotErr, wantErr)
				case gotErr != nil && gotErr.Error() != "tasks: unmarshal t state: "+wantErr.Error():
					t.Errorf("%s (prefilled %v, arena %v) %q: unmarshalState error %q does not wrap json.Unmarshal's %q",
						ty.name, filled, a != nil, data, gotErr, wantErr)
				}
				// DeepEqual tells nil from empty; the re-encoding tells -0 from 0.
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("%s (prefilled %v, arena %v) %q:\nunmarshalState %+v\njson.Unmarshal %+v",
						ty.name, filled, a != nil, data, got, want)
				}
				if a != nil {
					a.reset()
				}
			}
		}
	}
}

// decodeCases is the readable half of the differential test. fast says
// whether the fast path must handle the input for the named type, so a
// row also pins which side of the fallback it lands on.
var decodeCases = []struct {
	name, ty, data string
	fast           bool
}{
	{"plain", "sort", `{"values":[3,1,2]}`, true},
	{"surrounding whitespace", "sort", " \t\r\n{\"values\":[3,1,2]}\n ", true},
	{"inner whitespace", "matmul", "{ \"n\" : 1 ,\n\t\"a\" : [ 1.5 ] , \"b\":[ -2e-3\r\n] }", true},
	{"keys in another order", "matmul", `{"b":[2],"a":[1],"n":1}`, true},
	{"missing keys", "matmul", `{"a":[1]}`, true},
	{"empty object", "minimax", `{}`, true},
	{"empty array", "sort", `{"values":[]}`, true},
	{"empty array with space", "fft", `{"re":[ ],"im":[]}`, true},
	{"negative zero int", "fib", `{"n":-0}`, true},
	{"negative zero float", "fft", `{"re":[-0,0,-0.0]}`, true},
	{"18 digits", "fib", `{"n":999999999999999999}`, true},
	{"19 digits that fit", "fib", `{"n":9223372036854775807}`, true},
	{"most negative int", "fib", `{"n":-9223372036854775808}`, true},
	{"exponents", "fft", `{"re":[1e3,1E+3,1.5e-07,0.000001,123456789012345678901234567890]}`, true},
	{"bool and string", "inference", `{"model":"mobilenet","batch":1,"in":[0.5],"load":true}`, true},
	{"bool false, empty string", "inference", `{"load":false,"model":""}`, true},

	{"19 digits that overflow", "fib", `{"n":9223372036854775808}`, false},
	{"20 digits", "fib", `{"n":18446744073709551616}`, false},
	{"unknown key", "fib", `{"n":1,"extra":2}`, false},
	{"unknown key with nested value", "fib", `{"extra":{"n":[1,{"n":2}]},"n":3}`, false},
	{"duplicate key", "fib", `{"n":1,"n":2}`, false},
	{"duplicate array key", "sort", `{"values":[1,2,3],"values":[4]}`, false},
	{"wrong-case key", "fib", `{"N":4}`, false},
	{"escaped key", "fib", `{"\u006e":5}`, false},
	{"escaped string", "inference", `{"model":"mobile\u006eet"}`, false},
	{"non-ASCII string", "inference", `{"model":"möbilenet"}`, false},
	{"invalid UTF-8 string", "inference", "{\"model\":\"a\xffb\"}", false},
	{"control byte in string", "inference", "{\"model\":\"a\x01b\"}", false},
	{"null object", "fib", `null`, false},
	{"null int", "fib", `{"n":null}`, false},
	{"null array", "sort", `{"values":null}`, false},
	{"null element", "sort", `{"values":[1,null,3]}`, false},
	{"null bool", "inference", `{"load":null}`, false},
	{"fraction for an int", "fib", `{"n":1.0}`, false},
	{"exponent for an int", "fib", `{"n":1e3}`, false},
	{"fraction in an int array", "sort", `{"values":[1,2.5]}`, false},
	{"float out of range", "fft", `{"re":[1e999]}`, false},
	{"leading zero", "fib", `{"n":01}`, false},
	{"leading zero float", "fft", `{"re":[00.5]}`, false},
	{"leading plus", "fib", `{"n":+1}`, false},
	{"bare minus", "fib", `{"n":-}`, false},
	{"bare fraction", "fft", `{"re":[.5]}`, false},
	{"dangling point", "fft", `{"re":[1.]}`, false},
	{"dangling exponent", "fft", `{"re":[1e]}`, false},
	{"trailing comma in object", "fib", `{"n":1,}`, false},
	{"trailing comma in array", "sort", `{"values":[1,2,]}`, false},
	{"double comma in array", "sort", `{"values":[1,,2]}`, false},
	{"trailing garbage", "fib", `{"n":1}x`, false},
	{"second value", "fib", `{"n":1}{"n":2}`, false},
	{"nested array", "sort", `{"values":[[1],2]}`, false},
	{"nested object", "sort", `{"values":[{"a":1}]}`, false},
	{"string element", "sort", `{"values":["1"]}`, false},
	{"string for an int", "fib", `{"n":"1"}`, false},
	{"number for a string", "inference", `{"model":1}`, false},
	{"number for a bool", "inference", `{"load":1}`, false},
	{"array for an int", "fib", `{"n":[1]}`, false},
	{"int for an array", "sort", `{"values":1}`, false},
	{"top-level array", "fib", `[1]`, false},
	{"top-level number", "fib", `1`, false},
	{"unquoted key", "fib", `{n:1}`, false},
	{"missing colon", "fib", `{"n" 1}`, false},
	{"empty input", "fib", ``, false},
	{"whitespace only", "fib", ` `, false},
	{"byte order mark", "fib", "\xef\xbb\xbf{\"n\":1}", false},
}

func TestStateDecodeMatchesJSON(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			checkMatchesJSON(t, []byte(c.data))
			if fast := decodeState(nil, []byte(c.data), freshState(t, c.ty)); fast != c.fast {
				t.Errorf("decodeState(%s, %q) handled = %v, want %v", c.ty, c.data, fast, c.fast)
			}
		})
	}
	t.Run("truncated at every byte", func(t *testing.T) {
		st, err := Quicksort{}.Generate(rand.New(rand.NewSource(1)), 12)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(st.Data); n++ {
			checkMatchesJSON(t, st.Data[:n])
			if decodeState(nil, st.Data[:n], new(sortState)) {
				t.Errorf("decodeState accepted the truncated %q", st.Data[:n])
			}
		}
	})
}

// FuzzStateDecodeMatchesJSON is the differential check on arbitrary
// bytes: whatever the fast path accepts, it decodes as encoding/json
// does, and whatever it declines reaches encoding/json unchanged.
func FuzzStateDecodeMatchesJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.data))
	}
	r := rand.New(rand.NewSource(1))
	for _, g := range generated(f, r) {
		if len(g.st.Data) <= 512 { // the engine mutates and minimizes small seeds far faster
			f.Add([]byte(g.st.Data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesJSON(t, data)
	})
}

// executeSizes are the sizes benchmark/workload.go's computeMix runs the
// ten-task pool at (that module cannot be imported from here).
var executeSizes = []struct {
	task Task
	size int
	into func() any
}{
	{Quicksort{}, 2000, func() any { return new(sortState) }},
	{Bubblesort{}, 800, func() any { return new(sortState) }},
	{Mergesort{}, 2000, func() any { return new(sortState) }},
	{Minimax{}, 7, func() any { return new(minimaxState) }},
	{NQueens{}, 10, func() any { return new(nqueensState) }},
	{Fibonacci{}, 100000, func() any { return new(fibState) }},
	{MatMul{}, 16, func() any { return new(matmulState) }},
	{Knapsack{}, 200, func() any { return new(knapsackState) }},
	{Sieve{}, 100, func() any { return new(sieveState) }},
	{FFT{}, 512, func() any { return new(fftState) }},
}

type generatedState struct {
	st   State
	into any
}

// generated draws a state from every task that exists: the ten default
// ones at the benchmark's sizes and at small ones, parmatmul, and the
// inference family with the session flag set and cleared.
func generated(t testing.TB, r *rand.Rand) []generatedState {
	t.Helper()
	var out []generatedState
	add := func(task Task, size int, into any) {
		st, err := task.Generate(r, size)
		if err != nil {
			t.Fatalf("generate %s(%d): %v", task.Name(), size, err)
		}
		out = append(out, generatedState{st, into})
	}
	for _, e := range executeSizes {
		add(e.task, e.size, e.into())
		add(e.task, 0, e.into())
		add(e.task, 1+r.Intn(40), e.into())
	}
	add(ParMatMul{}, 24, new(matmulState))
	for _, task := range InferenceTasks() {
		add(task, 4, new(inferenceState))
		steady := out[len(out)-1].st
		if err := ClearSessionStart(&steady); err != nil {
			t.Fatal(err)
		}
		out = append(out, generatedState{steady, new(inferenceState)})
	}
	return out
}

// TestGeneratedStatesTakeFastPath keeps the gain from vanishing
// silently: every state Generate produces must be decoded by the fast
// path, not by the encoding/json fallback behind it.
func TestGeneratedStatesTakeFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		for _, g := range generated(t, r) {
			if !decodeState(nil, g.st.Data, g.into) {
				t.Fatalf("%s(%d): the fast path declined a generated state: %.80s",
					g.st.Task, g.st.Size, g.st.Data)
			}
			want := reflect.New(reflect.TypeOf(g.into).Elem()).Interface()
			if err := json.Unmarshal(g.st.Data, want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.into, want) {
				t.Fatalf("%s(%d): fast path decoded %+v, encoding/json %+v", g.st.Task, g.st.Size, g.into, want)
			}
		}
	}
}

// TestStateDecodeAllocations: decoding into the heap allocates one object
// per slice field (and one per non-empty string) and nothing else; into a
// warm arena it allocates nothing.
func TestStateDecodeAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	r := rand.New(rand.NewSource(3))
	budget := map[string]float64{
		"quicksort": 1, "bubblesort": 1, "mergesort": 1, "minimax": 1, "nqueens": 0,
		"fibonacci": 0, "matmul": 2, "knapsack": 2, "sieve": 0, "fft": 2,
	}
	warm := new(arena)
	for _, e := range executeSizes {
		st, err := e.task.Generate(r, e.size)
		if err != nil {
			t.Fatal(err)
		}
		into := e.into()
		for _, a := range []*arena{nil, warm} {
			want := budget[st.Task]
			if a != nil {
				want = 0
			}
			n := testing.AllocsPerRun(100, func() {
				if err := unmarshalState(a, st, st.Task, into); err != nil {
					t.Fatal(err)
				}
				if a != nil {
					a.reset()
				}
			})
			if n != want {
				t.Errorf("decoding a %s(%d) state (arena %v) allocates %.1f, want %.0f", st.Task, e.size, a != nil, n, want)
			}
		}
	}
}

// resultSlack is what one Execute may allocate beyond its Result.Data
// bytes: the state struct (it escapes through the decoder's any), the
// boxed result struct json.Marshal takes, the closures of the recursive
// kernels, and size-class rounding.
const resultSlack = 192

// TestExecuteAllocationBudget bounds a whole Execute of each compute_open
// task once its arena is warm: three allocations (state struct, boxed
// result, marshalled bytes), and no more bytes than the marshalled result
// plus resultSlack.
func TestExecuteAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	const allocBudget = 3
	r := rand.New(rand.NewSource(3))
	for _, e := range executeSizes {
		st, err := e.task.Generate(r, e.size)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.task.Execute(st)
		if err != nil {
			t.Fatal(err)
		}
		allocs, size := perRun(50, func() {
			if _, err := e.task.Execute(st); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > allocBudget {
			t.Errorf("%s(%d).Execute allocates %.1f times, budget %d", st.Task, e.size, allocs, allocBudget)
		}
		if limit := float64(len(res.Data) + resultSlack); size > limit {
			t.Errorf("%s(%d).Execute allocates %.0f B, budget %.0f (%d B of result + %d)",
				st.Task, e.size, size, limit, len(res.Data), resultSlack)
		}
	}
}

// perRun reports f's mean heap allocations and bytes per call over runs
// calls at GOMAXPROCS 1, after one warm-up call. It keeps the best of
// three tries: a GC in the middle of one empties the arena pool, and the
// arena that replaces it grows again.
func perRun(runs int, f func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, size = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		size = min(size, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, size
}

// TestHostileStatesAreErrors: well-formed states whose numbers used to
// wrap a length check or size an allocation past what the runtime allows
// are rejected before either happens.
func TestHostileStatesAreErrors(t *testing.T) {
	for _, c := range []struct {
		task Task
		data string
	}{
		{MatMul{}, `{"n":4294967296,"a":[],"b":[]}`},
		{ParMatMul{}, `{"n":4294967296,"a":[],"b":[]}`},
		{Sieve{}, `{"limit":4611686018427387904}`},
		{Knapsack{}, `{"capacity":4611686018427387904,"weights":[],"values":[]}`},
		{Minimax{}, `{"board":[],"m":4294967296,"k":3,"turn":1}`},
		{InferenceTasks()[0], `{"model":"mobilenet","batch":1152921504606846976,"in":[]}`},
	} {
		_, err := c.task.Execute(State{Task: c.task.Name(), Data: []byte(c.data)})
		if err == nil || !strings.HasPrefix(err.Error(), "tasks: ") {
			t.Errorf("%s %s: want a tasks: error, got %v", c.task.Name(), c.data, err)
		}
	}
}

var benchResult Result

// BenchmarkExecute times one Execute per task at the benchmark's sizes;
// MB/s is state bytes reconstructed and executed per second.
func BenchmarkExecute(b *testing.B) {
	defer func(p bool) { poisonArenas = p }(poisonArenas)
	poisonArenas = false
	r := rand.New(rand.NewSource(2))
	for _, e := range executeSizes {
		st, err := e.task.Generate(r, e.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.Task, func(b *testing.B) {
			b.SetBytes(int64(len(st.Data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The sorts work in place on the decoded slice, never on st.Data.
				if benchResult, err = e.task.Execute(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
