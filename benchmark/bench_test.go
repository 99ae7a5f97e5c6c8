package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"accelcloud/internal/tasks"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// One failure in 100 calls sorts last: p99 still reads a real latency,
	// two failures push it to +Inf.
	xs[99] = math.Inf(1)
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 with one failure = %v, want 99", got)
	}
	xs[98] = math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures = %v, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same values.
	xs := []float64{7, 1, 3, 10, 4, 8, 2, 9, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v, want 1, 3", q1, q3)
	}
	if xs[0] != 7 {
		t.Error("quartiles must not reorder its argument")
	}
}

func TestKeptWindowsAreTheQuietestQuarter(t *testing.T) {
	same := func(got, want []int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cost := []float64{5, 1, 4, 2, 3, 9, 0.5, 8, 7, 6, 10, 11, 0.7}
	if got, want := keptWindows(cost), []int{1, 6, 12}; !same(got, want) { // 13/4 cheapest, in window order
		t.Errorf("kept %v, want %v", got, want)
	}
	if got, want := keptWindows([]float64{3, 2, 1, 4}), []int{1, 2}; !same(got, want) {
		t.Errorf("at least two windows are kept: got %v, want %v", got, want)
	}
	if got, want := keptWindows([]float64{2, 2, 2, 2, 2, 2, 2, 2}), []int{0, 1}; !same(got, want) {
		t.Errorf("ties must keep the earlier windows: got %v, want %v", got, want)
	}
	if got, want := keptWindows([]float64{7}), []int{0}; !same(got, want) {
		t.Errorf("one window is kept as it is: got %v, want %v", got, want)
	}
}

func TestEstimateRules(t *testing.T) {
	wins := []window{
		{n: 100, wallS: 1.0, cpuS: 0.010, mallocs: 5000, bytes: 100000, p50: 1, p90: 3, p99: 9},
		{n: 100, wallS: 2.0, cpuS: 0.020, mallocs: 5000, bytes: 300000, p50: 2, p90: 4, p99: 5},
		{n: 100, wallS: 1.0, cpuS: 0.010, mallocs: 5000, bytes: 100000, p50: 1, p90: 5, p99: 50},
		{n: 100, wallS: 4.0, cpuS: 0.030, mallocs: 5000, bytes: 100000, p50: 4, p90: 6, p99: 7, failed: 1},
		{n: 100, wallS: 0.5, cpuS: 0.005, traced: true},
	}
	e := estimate(workload{}, wins, false)
	if len(e.kept) != 2 || e.kept[0] != 0 || e.kept[1] != 2 {
		t.Fatalf("kept %v, want the two 1 s windows; the traced window is not this run's", e.kept)
	}
	if e.offloadsPerS != 100 || e.p50 != 1 || e.cpuUs != 100 {
		t.Errorf("kept-window means: %v offloads/s, p50 %v, cpu %v; want 100, 1, 100", e.offloadsPerS, e.p50, e.cpuUs)
	}
	if e.p90 != 4 || e.p99 != 29.5 { // means over the kept windows: per-window percentiles, never pooled
		t.Errorf("p90 = %v, p99 = %v; want the kept windows' means 4 and 29.5", e.p90, e.p99)
	}
	if e.allP99 != 8 || e.allP50 != 1.5 {
		t.Errorf("all-window medians: p99 %v, p50 %v; want 8 and 1.5", e.allP99, e.allP50)
	}
	if e.attempted != 400 || e.failed != 1 {
		t.Errorf("attempted %d failed %d, want 400 and 1", e.attempted, e.failed)
	}
	if want := 20000.0 / 399; e.allocs != want {
		t.Errorf("allocs = %v, want every window's mallocs over completed offloads %v", e.allocs, want)
	}
	if want := 600000.0 / 399; e.bytes != want {
		t.Errorf("bytes = %v, want %v", e.bytes, want)
	}
	// The open loop ranks windows by mean latency, not wall time.
	open := []window{
		{n: 10, wallS: 1, meanLat: 3, p50: 30}, {n: 10, wallS: 1, meanLat: 1, p50: 10},
		{n: 10, wallS: 1, meanLat: 2, p50: 20}, {n: 10, wallS: 1, meanLat: 4, p50: 40},
	}
	if e := estimate(workload{openLoop: true}, open, false); e.p50 != 15 {
		t.Errorf("open-loop p50 = %v, want the mean over the two lowest-latency windows 15", e.p50)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.compute {
			// 4096 task executions: too slow for a fast test; its generator
			// is the one genInputs test below covers.
			continue
		}
		a, err := buildSchedule(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSchedule(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildSchedule(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 twice gave %s and %s", w.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a.digest())
		}
		for i, in := range a.inputs {
			if in.req.Group != 1+i%2 {
				t.Fatalf("%s: input %d in group %d, want groups alternating 1/2", w.name, i, in.req.Group)
			}
		}
	}
}

func TestOpenLoopScheduleAndComputeMix(t *testing.T) {
	w, _ := workloadByName("compute_open")
	w.window = 50
	small := w
	small.compute = false // arrival times do not depend on the task mix
	a, err := buildSchedule(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.due) != w.window {
		t.Fatalf("%d due times, want %d", len(a.due), w.window)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	span := time.Duration(float64(w.window) / w.rate * float64(time.Second))
	if last := a.due[len(a.due)-1]; last >= span || last < span/2 {
		t.Errorf("last arrival at %v, want inside the %v window and near its end", last, span)
	}
	b, err := buildSchedule(small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() == b.digest() {
		t.Error("another seed must move the arrivals")
	}

	// Every block of ten holds each task once, whatever the seed.
	inputs, err := genInputs(rng(3), true, 30)
	if err != nil {
		t.Fatal(err)
	}
	for block := 0; block < 3; block++ {
		seen := map[string]bool{}
		for _, in := range inputs[block*10 : block*10+10] {
			seen[in.req.State.Task] = true
			if !sameResult(in.want, in.want) || in.want.Task != in.req.State.Task {
				t.Fatalf("expected result of %s names task %q", in.req.State.Task, in.want.Task)
			}
		}
		if len(seen) != len(computeMix) {
			t.Errorf("block %d runs %d distinct tasks, want %d", block, len(seen), len(computeMix))
		}
	}
}

func TestSameResultComparesTaskDataAndOps(t *testing.T) {
	inputs, err := genInputs(rng(1), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := inputs[0].want
	for _, got := range []struct {
		name string
		edit func(r *tasks.Result)
	}{
		{"task", func(r *tasks.Result) { r.Task = "other" }},
		{"ops", func(r *tasks.Result) { r.Ops++ }},
		{"data", func(r *tasks.Result) { r.Data = append([]byte(nil), r.Data...); r.Data[0] ^= 1 }},
	} {
		r := want
		got.edit(&r)
		if sameResult(r, want) {
			t.Errorf("a result with a different %s passed the output check", got.name)
		}
	}
	if !sameResult(want, want) {
		t.Error("a result must equal itself")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var dry bytes.Buffer
	if code := run([]string{"-dry"}, &dry); code != 0 {
		t.Fatalf("-dry exited %d", code)
	}
	emitted := dry.String()

	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program, cap 8", n, len(workloads))
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program, cap 16", n, len(endToEnd))
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program, cap 128", n, len(perLayer))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		name("workload", w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their reasons differ", i, w.Name, workloads[i].name)
		}
		if !strings.Contains(emitted, "workload "+w.Name+": ") {
			t.Errorf("-dry does not emit workload %s", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		for i, m := range got {
			name(kind, m.Name)
			if !strings.Contains(emitted, kind+" "+m.Name+" unit="+m.Unit+" better="+m.Better) {
				t.Errorf("-dry does not emit %s %s with unit %s, better %s", kind, m.Name, m.Unit, m.Better)
			}
			if i >= len(want) {
				continue
			}
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better() {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better())
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json must equal the program's %v and lie in (0, 0.25]", m.Name, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bj.RunSeconds)
	}
}

func TestPlanInterleavesUntracedWindows(t *testing.T) {
	if got := len(plan(24, false)); got != 13 {
		t.Errorf("24 s untraced = %d windows, want 13", got)
	}
	if got := len(plan(1, false)); got != 4 {
		t.Errorf("the window count has a floor of 4, got %d", got)
	}
	p := plan(24, true)
	traced, untraced := 0, 0
	for _, tr := range p {
		if tr {
			traced++
		} else {
			untraced++
		}
	}
	if traced != 6 || untraced != 3 || !p[0] || p[2] {
		t.Errorf("24 s traced plan %v: want 6 traced windows with an untraced one after every second", p)
	}
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
