package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
)

// workload is one named traffic shape. Names are permanent: a later
// change is compared with this one row by row.
type workload struct {
	name string
	why  string
	// openLoop sends on a seeded Poisson schedule at rate offloads/s and
	// times each call from its due time; otherwise callers goroutines
	// each send their next call when the previous one returns.
	openLoop bool
	rate     float64
	callers  int // 0 selects nproc
	// jsonHops selects HTTP/JSON on device→front-end and
	// front-end→surrogate; otherwise both hops are bin://.
	jsonHops bool
	// queued puts WithQueue(2,256)+WithBatching(8,1ms) in the front-end
	// and a retry policy (hence idempotency keys) in the client.
	queued bool
	// compute draws inputs from the paper's ten-task pool; otherwise
	// every input is the 7-byte fibonacci state.
	compute bool
	// warmup and window are offload counts: fixed work, so set-up time
	// and every window repeat. A window lasts 1.4–1.9 s and a warm-up
	// ≈1.1 s on the 2-core box the counts were sized on.
	warmup, window int
}

// inputCount is the length of the pre-generated request cycle.
const inputCount = 4096

// windowSeconds is the nominal length of one measured window; -seconds
// divided by it gives the window count.
const windowSeconds = 1.9

var workloads = []workload{
	{
		name:   "small_bin",
		why:    "closed loop, nproc callers, 7 B state, bin:// both hops: per-message floor of wire/router/sdn/trace/obs; tasks idle",
		warmup: 40000, window: 50000,
	},
	{
		name:     "small_json",
		why:      "same inputs and callers over HTTP/JSON both hops: rpc JSON codec and net/http dominate, wire is idle",
		jsonHops: true,
		warmup:   16000, window: 24000,
	},
	{
		name:     "compute_open",
		why:      "open loop, Poisson 1200/s (about 30% of 2 cores), ten-task pool 0.1-0.5 ms each, bin://: dalvik/tasks dominate, protocol is a small share",
		openLoop: true, rate: 1200, compute: true,
		warmup: 1500, window: 2250,
	},
	{
		name:    "fanin_queued",
		why:     "closed loop, 64 callers on one bin:// connection, queue+batching+idempotency keys: write mutex, SubmitTimed, batch fill, idemCache, histogram mutex",
		callers: 64, queued: true,
		warmup: 48000, window: 70000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// computeMix is the paper's ten-task pool at the sizes the compute
// workload runs it (0.1–0.5 ms each on the sizing box, states ≤14 KB).
var computeMix = []struct {
	task string
	size int
}{
	{"quicksort", 2000}, {"bubblesort", 800}, {"mergesort", 2000},
	{"minimax", 7}, {"nqueens", 10},
	{"fibonacci", 100000}, {"matmul", 16}, {"knapsack", 200}, {"sieve", 100}, {"fft", 512},
}

// input is one pre-generated request with the result the surrogate must
// return for it.
type input struct {
	req  rpc.OffloadRequest
	want tasks.Result
}

// schedule is everything a run sends: the request cycle and, for the
// open loop, each window's due offsets. It is a pure function of the
// workload and the seed.
type schedule struct {
	inputs []input
	// due[i] is when window request i is to be sent, from window start.
	due []time.Duration
}

// genInputs draws n requests from r and computes each expected result
// locally with the same task pool the surrogates serve.
func genInputs(r *rand.Rand, compute bool, n int) ([]input, error) {
	pool := tasks.DefaultPool()
	inputs := make([]input, n)
	var perm []int
	for i := range inputs {
		task, size := "fibonacci", 1
		if compute {
			// Shuffled blocks of ten: every task appears once per block,
			// so any window that is a multiple of ten long runs the same
			// mix whatever the seed — the seed moves order and data, not
			// the amount of work.
			if i%len(computeMix) == 0 {
				perm = r.Perm(len(computeMix))
			}
			m := computeMix[perm[i%len(computeMix)]]
			task, size = m.task, m.size
		}
		t, err := pool.ByName(task)
		if err != nil {
			return nil, err
		}
		st, err := t.Generate(r, size)
		if err != nil {
			return nil, fmt.Errorf("generate %s(%d): %w", task, size, err)
		}
		want, err := pool.Execute(st)
		if err != nil {
			return nil, fmt.Errorf("execute %s(%d): %w", task, size, err)
		}
		inputs[i] = input{
			req: rpc.OffloadRequest{
				UserID:       r.Intn(1 << 20),
				Group:        1 + i%clusterGroups,
				BatteryLevel: r.Float64(),
				State:        st,
			},
			want: want,
		}
	}
	return inputs, nil
}

// buildSchedule generates a run's inputs and, for the open loop, its
// arrival times from the seed.
func buildSchedule(w workload, seed int64) (*schedule, error) {
	r := rand.New(rand.NewSource(seed))
	inputs, err := genInputs(r, w.compute, inputCount)
	if err != nil {
		return nil, err
	}
	s := &schedule{inputs: inputs}
	if w.openLoop {
		// Exponential gaps, scaled so the window's arrivals span exactly
		// window/rate seconds: a Poisson process conditioned on its
		// count. Without the scaling the last due time, and with it the
		// measured rate, would move 2 % with the seed.
		span := float64(w.window) / w.rate * float64(time.Second)
		gaps := make([]float64, w.window+1)
		var total float64
		for i := range gaps {
			gaps[i] = r.ExpFloat64()
			total += gaps[i]
		}
		s.due = make([]time.Duration, w.window)
		var at float64
		for i := range s.due {
			at += gaps[i]
			s.due[i] = time.Duration(at / total * span)
		}
	}
	return s, nil
}

// digest is an fnv1a fingerprint of everything the schedule sends, so
// two runs can be shown to have driven the program with the same input.
func (s *schedule) digest() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // hash.Hash never fails a write
	}
	for i := range s.inputs {
		in := &s.inputs[i]
		put(uint64(in.req.UserID))
		put(uint64(in.req.Group))
		put(math.Float64bits(in.req.BatteryLevel))
		put(uint64(in.req.State.Size))
		_, _ = h.Write([]byte(in.req.State.Task))
		_, _ = h.Write(in.req.State.Data)
	}
	for _, d := range s.due {
		put(uint64(d))
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// sameResult is the output check: task, data bytes and operation count
// must all match the locally computed expectation.
func sameResult(got, want tasks.Result) bool {
	return got.Task == want.Task && got.Ops == want.Ops && bytes.Equal(got.Data, want.Data)
}
