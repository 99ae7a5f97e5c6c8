package tasks

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
)

// Fibonacci computes F(n) mod 2^64 with the fast-doubling method. It is
// the lightest task in the pool (Work ≈ log n big-step iterations scaled
// to stay comparable with the rest of the pool).
type Fibonacci struct{}

var _ Task = Fibonacci{}

type fibState struct {
	N int `json:"n"`
}

type fibResult struct {
	ValueMod64 uint64 `json:"valueMod64"`
}

// Name implements Task.
func (Fibonacci) Name() string { return "fibonacci" }

// Generate implements Task. Size maps directly to n (clamped ≥ 0).
func (Fibonacci) Generate(_ *rand.Rand, size int) (State, error) {
	n := size
	if n < 0 {
		n = 0
	}
	return marshalState("fibonacci", size, fibState{N: n})
}

// Execute implements Task.
func (t Fibonacci) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Fibonacci) run(a *arena, st State) (Result, error) {
	var in fibState
	if err := unmarshalState(a, st, "fibonacci", &in); err != nil {
		return Result{}, err
	}
	if in.N < 0 {
		return Result{}, fmt.Errorf("tasks: fibonacci n=%d < 0", in.N)
	}
	var ops int64
	var fib func(n uint64) (uint64, uint64)
	fib = func(n uint64) (uint64, uint64) {
		ops++
		if n == 0 {
			return 0, 1
		}
		a, b := fib(n / 2)
		c := a * (2*b - a)
		d := a*a + b*b
		if n%2 == 0 {
			return c, d
		}
		return d, c + d
	}
	v, _ := fib(uint64(in.N))
	return marshalResult("fibonacci", ops, fibResult{ValueMod64: v})
}

// Work implements Task.
func (Fibonacci) Work(size int) float64 {
	if size < 2 {
		return 1
	}
	return math.Log2(float64(size)) + 1
}

// MatMul multiplies two dense n×n float64 matrices. Work ≈ n³.
type MatMul struct{}

// maxMatMulN bounds the dimension a state may claim, so that n*n cannot
// wrap past the length checks; sizes in use stay below 100.
const maxMatMulN = 1 << 10

var _ Task = MatMul{}

type matmulState struct {
	N int       `json:"n"`
	A []float64 `json:"a"`
	B []float64 `json:"b"`
}

type matmulResult struct {
	Trace float64 `json:"trace"`
	Norm  float64 `json:"norm"`
}

// Name implements Task.
func (MatMul) Name() string { return "matmul" }

// Generate implements Task. Size is the matrix dimension (clamped ≥ 1).
func (MatMul) Generate(r *rand.Rand, size int) (State, error) {
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
	return marshalState("matmul", size, matmulState{N: n, A: a, B: b})
}

// Execute implements Task.
func (t MatMul) Execute(st State) (Result, error) { return execute(st, t.run) }

func (MatMul) run(a *arena, st State) (Result, error) {
	var in matmulState
	if err := unmarshalState(a, st, "matmul", &in); err != nil {
		return Result{}, err
	}
	n := in.N
	if n < 1 || n > maxMatMulN || len(in.A) != n*n || len(in.B) != n*n {
		return Result{}, fmt.Errorf("tasks: matmul n=%d with %d/%d elements", n, len(in.A), len(in.B))
	}
	c := a.floatSlice(n * n)
	var ops int64
	for i := 0; i < n; i++ {
		for kk := 0; kk < n; kk++ {
			aik := in.A[i*n+kk]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * in.B[kk*n+j]
				ops++
			}
		}
	}
	var trace, norm float64
	for i := 0; i < n; i++ {
		trace += c[i*n+i]
	}
	for _, v := range c {
		norm += v * v
	}
	return marshalResult("matmul", ops, matmulResult{Trace: trace, Norm: math.Sqrt(norm)})
}

// Work implements Task.
func (MatMul) Work(size int) float64 {
	n := size
	if n < 1 {
		n = 1
	}
	return float64(n) * float64(n) * float64(n)
}

// Knapsack solves 0/1 knapsack by dynamic programming over items ×
// capacity. Work ≈ n·W.
type Knapsack struct{}

// maxKnapsackCapacity bounds the DP table a state may ask for (32 MB of
// ints); Generate asks for 10 per item.
const maxKnapsackCapacity = 1 << 22

var _ Task = Knapsack{}

type knapsackState struct {
	Capacity int   `json:"capacity"`
	Weights  []int `json:"weights"`
	Values   []int `json:"values"`
}

type knapsackResult struct {
	Best int `json:"best"`
}

// Name implements Task.
func (Knapsack) Name() string { return "knapsack" }

// Generate implements Task. Size is the item count; capacity scales as
// 10× the item count so Work grows quadratically with size.
func (Knapsack) Generate(r *rand.Rand, size int) (State, error) {
	n := size
	if n < 1 {
		n = 1
	}
	ws := make([]int, n)
	vs := make([]int, n)
	for i := range ws {
		ws[i] = 1 + r.Intn(20)
		vs[i] = 1 + r.Intn(100)
	}
	return marshalState("knapsack", size, knapsackState{
		Capacity: 10 * n, Weights: ws, Values: vs,
	})
}

// Execute implements Task.
func (t Knapsack) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Knapsack) run(a *arena, st State) (Result, error) {
	var in knapsackState
	if err := unmarshalState(a, st, "knapsack", &in); err != nil {
		return Result{}, err
	}
	if len(in.Weights) != len(in.Values) {
		return Result{}, fmt.Errorf("tasks: knapsack %d weights vs %d values", len(in.Weights), len(in.Values))
	}
	if in.Capacity < 0 {
		return Result{}, fmt.Errorf("tasks: knapsack capacity %d < 0", in.Capacity)
	}
	if in.Capacity > maxKnapsackCapacity {
		return Result{}, fmt.Errorf("tasks: knapsack capacity %d > %d", in.Capacity, maxKnapsackCapacity)
	}
	dp := a.intSlice(in.Capacity + 1)
	var ops int64
	for i, w := range in.Weights {
		v := in.Values[i]
		if w < 0 {
			return Result{}, fmt.Errorf("tasks: knapsack weight %d < 0", w)
		}
		for c := in.Capacity; c >= w; c-- {
			ops++
			if cand := dp[c-w] + v; cand > dp[c] {
				dp[c] = cand
			}
		}
	}
	return marshalResult("knapsack", ops, knapsackResult{Best: dp[in.Capacity]})
}

// Work implements Task.
func (Knapsack) Work(size int) float64 {
	n := size
	if n < 1 {
		n = 1
	}
	return float64(n) * float64(10*n)
}

// Sieve counts primes below the limit with the sieve of Eratosthenes.
type Sieve struct{}

// maxSieveLimit bounds the table a state may ask for (16 MB); Generate
// asks for 1000 per unit of size.
const maxSieveLimit = 1 << 24

var _ Task = Sieve{}

type sieveState struct {
	Limit int `json:"limit"`
}

type sieveResult struct {
	Primes int `json:"primes"`
}

// Name implements Task.
func (Sieve) Name() string { return "sieve" }

// Generate implements Task. Size scales the sieve limit by 1000 so the
// pool's size knob produces comparable service demands across tasks.
func (Sieve) Generate(_ *rand.Rand, size int) (State, error) {
	n := size
	if n < 1 {
		n = 1
	}
	return marshalState("sieve", size, sieveState{Limit: 1000 * n})
}

// Execute implements Task.
func (t Sieve) Execute(st State) (Result, error) { return execute(st, t.run) }

func (Sieve) run(a *arena, st State) (Result, error) {
	var in sieveState
	if err := unmarshalState(a, st, "sieve", &in); err != nil {
		return Result{}, err
	}
	if in.Limit < 0 {
		return Result{}, fmt.Errorf("tasks: sieve limit %d < 0", in.Limit)
	}
	if in.Limit > maxSieveLimit {
		return Result{}, fmt.Errorf("tasks: sieve limit %d > %d", in.Limit, maxSieveLimit)
	}
	if in.Limit < 2 {
		return marshalResult("sieve", 1, sieveResult{Primes: 0})
	}
	// One bit per number: bit q%64 of composite[q/64] marks q composite.
	limit := uint(in.Limit)
	composite := a.wordSlice(int((limit + 63) / 64))
	var ops int64
	for p := uint(2); p*p < limit; p++ {
		if composite[p/64]&(1<<(p%64)) != 0 {
			continue
		}
		for q := p * p; q < limit; q += p {
			composite[q/64] |= 1 << (q % 64)
			ops++
		}
	}
	// Only the composites in [4, limit) are marked.
	count := in.Limit - 2
	for _, w := range composite {
		count -= bits.OnesCount64(w)
	}
	return marshalResult("sieve", ops, sieveResult{Primes: count})
}

// Work implements Task.
func (Sieve) Work(size int) float64 {
	n := 1000 * size
	if n < 2 {
		return 1
	}
	return float64(n) * math.Log(math.Log(float64(n))+1)
}

// FFT runs an in-place radix-2 Cooley–Tukey transform over random complex
// samples. Work ≈ n·log2 n with n rounded up to a power of two.
type FFT struct{}

var _ Task = FFT{}

type fftState struct {
	Re []float64 `json:"re"`
	Im []float64 `json:"im"`
}

type fftResult struct {
	Energy float64 `json:"energy"`
	PeakDC float64 `json:"peakDC"`
}

// Name implements Task.
func (FFT) Name() string { return "fft" }

// Generate implements Task. Size is rounded up to the next power of two
// (minimum 8 samples).
func (FFT) Generate(r *rand.Rand, size int) (State, error) {
	n := nextPow2(size)
	if n < 8 {
		n = 8
	}
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = r.NormFloat64()
	}
	return marshalState("fft", size, fftState{Re: re, Im: im})
}

// Execute implements Task.
func (t FFT) Execute(st State) (Result, error) { return execute(st, t.run) }

func (FFT) run(a *arena, st State) (Result, error) {
	var in fftState
	if err := unmarshalState(a, st, "fft", &in); err != nil {
		return Result{}, err
	}
	n := len(in.Re)
	if n == 0 || n&(n-1) != 0 || len(in.Im) != n {
		return Result{}, fmt.Errorf("tasks: fft needs power-of-two matched re/im, got %d/%d", n, len(in.Im))
	}
	xs := a.complexSlice(n)
	for i := range xs {
		xs[i] = complex(in.Re[i], in.Im[i])
	}
	var ops int64
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			xs[i], xs[j] = xs[j], xs[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for span := 2; span <= n; span <<= 1 {
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(span)))
		for start := 0; start < n; start += span {
			wk := complex(1, 0)
			for o := 0; o < span/2; o++ {
				a := xs[start+o]
				b := xs[start+o+span/2] * wk
				xs[start+o] = a + b
				xs[start+o+span/2] = a - b
				wk *= w
				ops++
			}
		}
	}
	var energy float64
	for _, x := range xs {
		energy += real(x)*real(x) + imag(x)*imag(x)
	}
	return marshalResult("fft", ops, fftResult{Energy: energy, PeakDC: cmplx.Abs(xs[0])})
}

// Work implements Task.
func (FFT) Work(size int) float64 {
	n := nextPow2(size)
	if n < 8 {
		n = 8
	}
	return nLogN(n) / 2
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
