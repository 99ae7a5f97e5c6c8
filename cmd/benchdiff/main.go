// Command benchdiff compares a fresh benchmark report against a
// committed baseline and exits non-zero when performance regressed
// beyond the tolerance — the comparison behind the bench-regression and
// autoscale CI gates. The report kind is auto-detected from the schema
// field: loadgen reports (BENCH_loadgen.json) gate on p99 latency,
// throughput, and error rate; autoscale reports (BENCH_autoscale.json)
// gate on p99 latency, total adaptive cost, and error rate, and
// additionally require the decision digest to match the baseline — the
// control cycle is deterministic, so any divergence is a behaviour
// change, not noise; router reports (BENCH_router.json) gate on the
// rr-vs-mutex speedup (a throughput ratio, so largely machine-portable)
// plus — within one machine class (same NumCPU and GOMAXPROCS) —
// per-policy p99 pick latency; serve reports
// (BENCH_serve.json) gate on the dynamic-batching throughput speedup
// (hard floor 2×), the saturated hold ratio (hard ceiling 1.2), a
// non-zero queue-full rejection count, and exact reproduction of the
// scale-to-zero activation count and decision digest; geo reports
// (BENCH_geo.json) gate on exact reproduction of the sweep decision,
// outage schedule, and failover-event digests, per-region p99 within
// the relative tolerance, a non-zero spillover rate under a hard
// ceiling, zero lost in-flight calls, and the failover time-to-recover
// under its hard ceiling; scenario reports (BENCH_scenario.json) gate
// on exact reproduction of the stream and replay digests and request
// counts (the schedule is deterministic per seed), shard-count
// invariance, the flash-crowd rate ratio against its hard floor, the
// streaming pass's peak heap against its hard ceiling, and — within
// one machine class — generation throughput against the baseline;
// obs reports (BENCH_obs.json) gate on the instrumentation on/off p99
// ratio (hard ceiling 1.5 plus the relative tolerance), exactly zero
// allocations per metric hot-path operation, exact reproduction of
// the scraped series count and the span sampling plan (planned count
// and fnv1a span-ID digest), and full collection of planned spans.
//
// A regression is: current p99 latency above baseline × (1 + tolerance),
// current throughput below baseline × (1 − tolerance) (loadgen),
// current cost above baseline × (1 + tolerance) (autoscale), or error
// rate more than -max-error-rate-delta above baseline (absolute).
// Improvements never fail, and a report whose schedule digest differs
// from the baseline's is flagged (different schedules are not
// comparable) unless -ignore-schedule is set.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_loadgen.json -tolerance 0.20
//	benchdiff -baseline BENCH_autoscale_baseline.json -current BENCH_autoscale.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"accelcloud/internal/autoscale"
	"accelcloud/internal/faults"
	"accelcloud/internal/geobench"
	"accelcloud/internal/loadgen"
	"accelcloud/internal/obsbench"
	"accelcloud/internal/router"
	"accelcloud/internal/scenariobench"
	"accelcloud/internal/servebench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// pct renders a relative change as a signed percentage.
func pct(baseline, current float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(current-baseline)/baseline)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	basePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline report")
	curPath := fs.String("current", "BENCH_loadgen.json", "freshly measured report")
	tolerance := fs.Float64("tolerance", 0.20, "allowed relative regression on p99/throughput (0.20 = 20%)")
	errDelta := fs.Float64("max-error-rate-delta", 0.01, "allowed absolute error-rate increase over baseline")
	ignoreSchedule := fs.Bool("ignore-schedule", false, "compare even when schedule digests differ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tolerance < 0 {
		return fmt.Errorf("tolerance %v < 0", *tolerance)
	}
	if *errDelta < 0 {
		return fmt.Errorf("max-error-rate-delta %v < 0", *errDelta)
	}
	baseSchema, err := peekSchema(*basePath)
	if err != nil {
		return err
	}
	curSchema, err := peekSchema(*curPath)
	if err != nil {
		return err
	}
	if baseSchema != curSchema {
		return fmt.Errorf("schema mismatch: baseline %q vs current %q", baseSchema, curSchema)
	}
	if baseSchema == autoscale.ReportSchema {
		return diffAutoscale(out, *basePath, *curPath, *tolerance, *errDelta, *ignoreSchedule)
	}
	if baseSchema == faults.ReportSchema {
		return diffChaos(out, *basePath, *curPath, *tolerance, *errDelta, *ignoreSchedule)
	}
	if baseSchema == router.ReportSchema {
		return diffRouter(out, *basePath, *curPath, *tolerance)
	}
	if baseSchema == servebench.Schema {
		return diffServe(out, *basePath, *curPath, *tolerance)
	}
	if baseSchema == geobench.Schema {
		return diffGeo(out, *basePath, *curPath, *tolerance, *ignoreSchedule)
	}
	if baseSchema == scenariobench.Schema {
		return diffScenario(out, *basePath, *curPath, *tolerance, *ignoreSchedule)
	}
	if baseSchema == obsbench.Schema {
		return diffObs(out, *basePath, *curPath, *tolerance)
	}
	base, err := loadgen.ReadReportFile(*basePath)
	if err != nil {
		return err
	}
	cur, err := loadgen.ReadReportFile(*curPath)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "benchdiff: baseline %s vs current %s (tolerance %.0f%%)\n",
		*basePath, *curPath, 100**tolerance)
	fmt.Fprintf(out, "  %-16s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-16s %12.2f %12.2f %10s\n", "p99 ms", base.Latency.P99Ms, cur.Latency.P99Ms, pct(base.Latency.P99Ms, cur.Latency.P99Ms))
	fmt.Fprintf(out, "  %-16s %12.2f %12.2f %10s\n", "p50 ms", base.Latency.P50Ms, cur.Latency.P50Ms, pct(base.Latency.P50Ms, cur.Latency.P50Ms))
	fmt.Fprintf(out, "  %-16s %12.2f %12.2f %10s\n", "throughput rps", base.ThroughputRps, cur.ThroughputRps, pct(base.ThroughputRps, cur.ThroughputRps))
	fmt.Fprintf(out, "  %-16s %12.3f %12.3f %10s\n", "error rate", base.ErrorRate, cur.ErrorRate, pct(base.ErrorRate, cur.ErrorRate))

	if base.ScheduleDigest != cur.ScheduleDigest {
		msg := fmt.Sprintf("schedule digests differ (%s vs %s): runs replay different request sequences",
			base.ScheduleDigest, cur.ScheduleDigest)
		if !*ignoreSchedule {
			return fmt.Errorf("%s (use -ignore-schedule to compare anyway)", msg)
		}
		fmt.Fprintf(out, "  warning: %s\n", msg)
	}

	var failures []string
	if base.Latency.P99Ms > 0 && cur.Latency.P99Ms > base.Latency.P99Ms*(1+*tolerance) {
		failures = append(failures, fmt.Sprintf("p99 latency regressed %s (%.2f -> %.2f ms)",
			pct(base.Latency.P99Ms, cur.Latency.P99Ms), base.Latency.P99Ms, cur.Latency.P99Ms))
	}
	if base.ThroughputRps > 0 && cur.ThroughputRps < base.ThroughputRps*(1-*tolerance) {
		failures = append(failures, fmt.Sprintf("throughput regressed %s (%.2f -> %.2f rps)",
			pct(base.ThroughputRps, cur.ThroughputRps), base.ThroughputRps, cur.ThroughputRps))
	}
	if cur.ErrorRate > base.ErrorRate+*errDelta {
		failures = append(failures, fmt.Sprintf("error rate rose %.3f -> %.3f (allowed delta %.3f)",
			base.ErrorRate, cur.ErrorRate, *errDelta))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100**tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// diffRouter gates a router micro-benchmark report. Raw ops/sec moves
// with the host CPU, so the gated columns are the rr-vs-mutex speedup
// (a ratio of two numbers measured on the same host in the same run)
// and per-policy p99 pick latency; throughput is printed for context
// only.
func diffRouter(out io.Writer, basePath, curPath string, tolerance float64) error {
	base, err := router.ReadBenchReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := router.ReadBenchReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: router baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	fmt.Fprintf(out, "  %-26s %14s %14s %10s\n", "metric", "baseline", "current", "change")
	// Absolute pick latencies only compare within one configuration:
	// same machine class (core count, GOMAXPROCS) and same benchmark
	// shape (pool size — least-inflight's pick is O(backends)). Across
	// configurations only the speedup ratio — two measurements from
	// the same host in the same run — stays meaningful.
	sameClass := base.NumCPU == cur.NumCPU && base.GoMaxProcs == cur.GoMaxProcs &&
		base.Backends == cur.Backends
	basePolicies := map[string]router.PolicyResult{}
	for _, p := range base.Policies {
		basePolicies[p.Policy] = p
	}
	var failures []string
	// Every baseline policy must be present in the current report —
	// otherwise a narrowed -policies run would pass the gate without
	// gating anything.
	curPolicies := map[string]bool{}
	for _, c := range cur.Policies {
		curPolicies[c.Policy] = true
	}
	for _, b := range base.Policies {
		if !curPolicies[b.Policy] {
			failures = append(failures, fmt.Sprintf("policy %s is in the baseline but missing from the current report", b.Policy))
		}
	}
	for _, c := range cur.Policies {
		b, ok := basePolicies[c.Policy]
		if !ok {
			fmt.Fprintf(out, "  %-26s %14s %14.0f %10s\n",
				c.Policy+" ops/sec", "n/a", c.ThroughputOpsPerSec, "new")
			continue
		}
		fmt.Fprintf(out, "  %-26s %14.0f %14.0f %10s\n",
			c.Policy+" ops/sec", b.ThroughputOpsPerSec, c.ThroughputOpsPerSec,
			pct(b.ThroughputOpsPerSec, c.ThroughputOpsPerSec))
		fmt.Fprintf(out, "  %-26s %14.3f %14.3f %10s\n",
			c.Policy+" p99 us", b.PickP99Us, c.PickP99Us, pct(b.PickP99Us, c.PickP99Us))
		switch {
		case b.Goroutines != c.Goroutines:
			// A silently skipped gate must announce itself.
			fmt.Fprintf(out, "  warning: %s measured at %d goroutines vs baseline %d: skipping its p99 gate\n",
				c.Policy, c.Goroutines, b.Goroutines)
		case sameClass && b.PickP99Us > 0 && c.PickP99Us > b.PickP99Us*(1+tolerance):
			failures = append(failures, fmt.Sprintf("%s p99 pick latency regressed %s (%.3f -> %.3f us)",
				c.Policy, pct(b.PickP99Us, c.PickP99Us), b.PickP99Us, c.PickP99Us))
		}
	}
	if !sameClass {
		fmt.Fprintf(out, "  warning: machine class or configuration differs (baseline %d CPU / GOMAXPROCS %d / %d backends, current %d / %d / %d): gating the speedup ratio only\n",
			base.NumCPU, base.GoMaxProcs, base.Backends, cur.NumCPU, cur.GoMaxProcs, cur.Backends)
	}
	switch {
	case base.SpeedupVsMutex > 0 && cur.SpeedupVsMutex > 0:
		fmt.Fprintf(out, "  %-26s %14.2f %14.2f %10s\n",
			"speedup rr vs mutex", base.SpeedupVsMutex, cur.SpeedupVsMutex,
			pct(base.SpeedupVsMutex, cur.SpeedupVsMutex))
		if cur.SpeedupVsMutex < base.SpeedupVsMutex*(1-tolerance) {
			failures = append(failures, fmt.Sprintf("rr-vs-mutex speedup regressed %s (%.2fx -> %.2fx)",
				pct(base.SpeedupVsMutex, cur.SpeedupVsMutex), base.SpeedupVsMutex, cur.SpeedupVsMutex))
		}
	case base.SpeedupVsMutex > 0:
		// The gate's headline column cannot silently vanish (e.g. a
		// -no-mutex-baseline run).
		failures = append(failures, "baseline has an rr-vs-mutex speedup but the current report is missing the mutex baseline measurement")
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// Hard bars every servebench report must clear regardless of the
// baseline — the acceptance criteria of the serving layer: dynamic
// batching at least doubles homogeneous closed-loop throughput, and a
// saturated backend's presence moves the healthy backend's p99 by at
// most 20% of the healthy-only baseline.
const (
	minBatchSpeedup = 2.0
	maxHoldRatio    = 1.2
)

// diffServe gates a servebench report. The batching speedup and the
// saturation hold ratio are within-run ratios (machine-portable), each
// gated against its hard bar; the speedup is additionally gated
// against the committed baseline with the relative tolerance. The
// scale-to-zero scenario is deterministic, so its activation count and
// decision digest must reproduce the baseline exactly, and the run
// must have shed at least one request through the typed queue-full
// rejection path. Raw rps and millisecond columns are printed for
// context only — they move with host speed.
func diffServe(out io.Writer, basePath, curPath string, tolerance float64) error {
	base, err := servebench.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := servebench.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: serve baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	fmt.Fprintf(out, "  %-26s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-26s %12.0f %12.0f %10s\n", "unbatched rps", base.UnbatchedThroughputRps, cur.UnbatchedThroughputRps, pct(base.UnbatchedThroughputRps, cur.UnbatchedThroughputRps))
	fmt.Fprintf(out, "  %-26s %12.0f %12.0f %10s\n", "batched rps", base.BatchedThroughputRps, cur.BatchedThroughputRps, pct(base.BatchedThroughputRps, cur.BatchedThroughputRps))
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "batch speedup", base.BatchSpeedup, cur.BatchSpeedup, pct(base.BatchSpeedup, cur.BatchSpeedup))
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "saturated hold ratio", base.SaturatedHoldRatio, cur.SaturatedHoldRatio, pct(base.SaturatedHoldRatio, cur.SaturatedHoldRatio))
	fmt.Fprintf(out, "  %-26s %12d %12d %10s\n", "queue-full rejections", base.QueueFullRejections, cur.QueueFullRejections, pct(float64(base.QueueFullRejections), float64(cur.QueueFullRejections)))
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "cold activations", base.ColdActivations, cur.ColdActivations)
	fmt.Fprintf(out, "  %-26s %25s\n", "decision digest", cur.DecisionDigest)

	var failures []string
	if cur.BatchSpeedup < minBatchSpeedup {
		failures = append(failures, fmt.Sprintf("batch speedup %.2fx below the %.1fx floor", cur.BatchSpeedup, minBatchSpeedup))
	}
	if base.BatchSpeedup > 0 && cur.BatchSpeedup < base.BatchSpeedup*(1-tolerance) {
		failures = append(failures, fmt.Sprintf("batch speedup regressed %s (%.2fx -> %.2fx)",
			pct(base.BatchSpeedup, cur.BatchSpeedup), base.BatchSpeedup, cur.BatchSpeedup))
	}
	if cur.SaturatedHoldRatio > maxHoldRatio {
		failures = append(failures, fmt.Sprintf("saturated hold ratio %.2f above the %.1f ceiling: the crippled backend degraded its healthy peer", cur.SaturatedHoldRatio, maxHoldRatio))
	}
	if cur.QueueFullRejections == 0 {
		failures = append(failures, "no queue-full rejections: the saturated backend never backpressured")
	}
	if cur.ColdActivations < 1 {
		failures = append(failures, "no cold-pool activation: scale-to-zero never reactivated the parked backend")
	}
	if cur.ColdActivations != base.ColdActivations {
		failures = append(failures, fmt.Sprintf("cold activations changed (%d -> %d): the deterministic scenario diverged",
			base.ColdActivations, cur.ColdActivations))
	}
	if cur.DecisionDigest != base.DecisionDigest {
		failures = append(failures, fmt.Sprintf("decision digest changed (%s -> %s): the scale-to-zero control cycle is not reproducing",
			base.DecisionDigest, cur.DecisionDigest))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// Hard bars every geobench report must clear regardless of the
// baseline — the acceptance criteria of the multi-region tier:
// spillover must happen under saturation but stay the exception, a
// region kill may lose nothing, and the monitor must fence a killed
// region within the recover ceiling.
const (
	maxSpilloverRate     = 0.90
	maxFailoverRecoverMs = 5000.0
)

// diffGeo gates a geobench report. The sweep's routing decisions, the
// faults schedule, and the failover-event log are deterministic per
// seed, so their digests must reproduce the baseline exactly; the
// per-region p99s are sleep-dominated (simulated RTT) and get the
// relative tolerance, with every baseline region required in the
// current report; the spillover rate must be non-zero and under its
// hard ceiling; and the failover scenario must lose zero in-flight
// calls and recover within the hard bound.
func diffGeo(out io.Writer, basePath, curPath string, tolerance float64, ignoreSchedule bool) error {
	base, err := geobench.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := geobench.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: geo baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	if base.ScheduleDigest != cur.ScheduleDigest {
		msg := fmt.Sprintf("schedule digests differ (%s vs %s): runs replay different outage schedules",
			base.ScheduleDigest, cur.ScheduleDigest)
		if !ignoreSchedule {
			return fmt.Errorf("%s (use -ignore-schedule to compare anyway)", msg)
		}
		fmt.Fprintf(out, "  warning: %s\n", msg)
	}
	fmt.Fprintf(out, "  %-26s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	var failures []string
	names := make([]string, 0, len(base.Regions))
	for name := range base.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Regions[name]
		c, ok := cur.Regions[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("region %s is in the baseline but missing from the current sweep", name))
			continue
		}
		fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", name+" p99 ms", b.P99Ms, c.P99Ms, pct(b.P99Ms, c.P99Ms))
		if b.P99Ms > 0 && c.P99Ms > b.P99Ms*(1+tolerance) {
			failures = append(failures, fmt.Sprintf("%s p99 regressed %s (%.2f -> %.2f ms)",
				name, pct(b.P99Ms, c.P99Ms), b.P99Ms, c.P99Ms))
		}
	}
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "spillover rate", base.SpilloverRate, cur.SpilloverRate, pct(base.SpilloverRate, cur.SpilloverRate))
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "lost in flight", base.LostInFlight, cur.LostInFlight)
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f %10s\n", "failover recover ms", base.FailoverRecoverMs, cur.FailoverRecoverMs, pct(base.FailoverRecoverMs, cur.FailoverRecoverMs))
	fmt.Fprintf(out, "  %-26s %25s\n", "decision digest", cur.DecisionDigest)
	fmt.Fprintf(out, "  %-26s %25s\n", "failover digest", cur.FailoverDigest)

	if base.ScheduleDigest == cur.ScheduleDigest && base.DecisionDigest != cur.DecisionDigest {
		failures = append(failures, fmt.Sprintf("sweep decision digest changed (%s -> %s): the geo tier routes differently",
			base.DecisionDigest, cur.DecisionDigest))
	}
	if base.ScheduleDigest == cur.ScheduleDigest && base.FailoverDigest != cur.FailoverDigest {
		failures = append(failures, fmt.Sprintf("failover-event digest changed (%s -> %s): outage detection behaves differently",
			base.FailoverDigest, cur.FailoverDigest))
	}
	if cur.SpillCalls == 0 {
		failures = append(failures, "no spillover: the saturated home region never pushed a call to its neighbour")
	}
	if cur.SpilloverRate > maxSpilloverRate {
		failures = append(failures, fmt.Sprintf("spillover rate %.2f above the %.2f ceiling: the home region absorbed almost nothing", cur.SpilloverRate, maxSpilloverRate))
	}
	if cur.LostInFlight > 0 {
		failures = append(failures, fmt.Sprintf("%d in-flight calls lost across the region kill", cur.LostInFlight))
	}
	if cur.FailoverRecoverMs > maxFailoverRecoverMs {
		failures = append(failures, fmt.Sprintf("failover time-to-recover %.1f ms above the %.0f ms ceiling", cur.FailoverRecoverMs, maxFailoverRecoverMs))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// Hard bars every scenariobench report must clear regardless of the
// baseline — the acceptance criteria of the scenario engine: the
// flash crowds must at least double the request rate of the calm
// phase, and the million-user streaming pass must stay in O(shards)
// memory — orders of magnitude under what a materialized schedule
// would need.
const (
	minCrowdRateRatio = 2.0
	maxScenarioHeapMB = 256.0
)

// diffScenario gates a scenariobench report. The schedule is a pure
// function of (seed, config), so the stream digest, request count,
// and replay digest must reproduce the baseline exactly, and the
// shard-invariance sweep must hold; the crowd-vs-calm rate ratio is a
// within-run ratio gated against its hard floor; peak heap during the
// streaming pass is gated against its hard ceiling (it depends on the
// block size, not the host); generation throughput moves with the
// host CPU, so it is gated against the baseline only within one
// machine class (same NumCPU and GOMAXPROCS). Replay p99 columns are
// printed for context only — they are sleep-dominated.
func diffScenario(out io.Writer, basePath, curPath string, tolerance float64, ignoreSchedule bool) error {
	base, err := scenariobench.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := scenariobench.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: scenario baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	if base.Seed != cur.Seed || base.Users != cur.Users ||
		base.VirtualSeconds != cur.VirtualSeconds || base.ReplayUsers != cur.ReplayUsers {
		return fmt.Errorf("configurations differ (baseline seed %d / %d users / %.0fs / %d replay users, current %d / %d / %.0fs / %d): reports are not comparable",
			base.Seed, base.Users, base.VirtualSeconds, base.ReplayUsers,
			cur.Seed, cur.Users, cur.VirtualSeconds, cur.ReplayUsers)
	}
	if base.StreamDigest != cur.StreamDigest {
		msg := fmt.Sprintf("stream digests differ (%s vs %s): runs generate different schedules",
			base.StreamDigest, cur.StreamDigest)
		if !ignoreSchedule {
			return fmt.Errorf("%s (use -ignore-schedule to compare anyway)", msg)
		}
		fmt.Fprintf(out, "  warning: %s\n", msg)
	}
	fmt.Fprintf(out, "  %-26s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "requests", base.Requests, cur.Requests)
	fmt.Fprintf(out, "  %-26s %12.0f %12.0f %10s\n", "gen req/s", base.GenRequestsPerSec, cur.GenRequestsPerSec, pct(base.GenRequestsPerSec, cur.GenRequestsPerSec))
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f %10s\n", "peak heap MB", base.PeakHeapMB, cur.PeakHeapMB, pct(base.PeakHeapMB, cur.PeakHeapMB))
	fmt.Fprintf(out, "  %-26s %12v %12v\n", "shards invariant", base.ShardsInvariant, cur.ShardsInvariant)
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "replay requests", base.ReplayRequests, cur.ReplayRequests)
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "crowd rate ratio", base.CrowdRateRatio, cur.CrowdRateRatio, pct(base.CrowdRateRatio, cur.CrowdRateRatio))
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f %10s\n", "crowd p99 ms", base.CrowdP99Ms, cur.CrowdP99Ms, pct(base.CrowdP99Ms, cur.CrowdP99Ms))
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f %10s\n", "calm p99 ms", base.CalmP99Ms, cur.CalmP99Ms, pct(base.CalmP99Ms, cur.CalmP99Ms))
	fmt.Fprintf(out, "  %-26s %25s\n", "stream digest", cur.StreamDigest)
	fmt.Fprintf(out, "  %-26s %25s\n", "replay digest", cur.ReplayDigest)

	var failures []string
	sameSchedule := base.StreamDigest == cur.StreamDigest
	if sameSchedule && base.Requests != cur.Requests {
		failures = append(failures, fmt.Sprintf("request count changed (%d -> %d) under the same stream digest: the generator is inconsistent",
			base.Requests, cur.Requests))
	}
	if !cur.ShardsInvariant {
		failures = append(failures, "schedule digest varies with shard count: sharding changes the workload")
	}
	if sameSchedule && base.ReplayDigest != cur.ReplayDigest {
		failures = append(failures, fmt.Sprintf("replay digest changed (%s -> %s): scenario replay materializes different requests",
			base.ReplayDigest, cur.ReplayDigest))
	}
	if cur.CrowdRateRatio < minCrowdRateRatio {
		failures = append(failures, fmt.Sprintf("crowd rate ratio %.2fx below the %.1fx floor: the flash crowd never materialized", cur.CrowdRateRatio, minCrowdRateRatio))
	}
	if cur.PeakHeapMB > maxScenarioHeapMB {
		failures = append(failures, fmt.Sprintf("peak heap %.1f MB above the %.0f MB ceiling: generation is no longer streaming", cur.PeakHeapMB, maxScenarioHeapMB))
	}
	sameClass := base.NumCPU == cur.NumCPU && base.GoMaxProcs == cur.GoMaxProcs
	switch {
	case !sameClass:
		fmt.Fprintf(out, "  warning: machine class differs (baseline %d CPU / GOMAXPROCS %d, current %d / %d): skipping the generation-throughput gate\n",
			base.NumCPU, base.GoMaxProcs, cur.NumCPU, cur.GoMaxProcs)
	case base.GenRequestsPerSec > 0 && cur.GenRequestsPerSec < base.GenRequestsPerSec*(1-tolerance):
		failures = append(failures, fmt.Sprintf("generation throughput regressed %s (%.0f -> %.0f req/s)",
			pct(base.GenRequestsPerSec, cur.GenRequestsPerSec), base.GenRequestsPerSec, cur.GenRequestsPerSec))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// maxObsOverheadRatio is the hard ceiling every obsbench report must
// clear regardless of the baseline — the acceptance bar of the
// observability layer: turning metrics on may move the workload's p99
// by at most 50% (loopback requests are sub-millisecond, so the
// ceiling is generous against scheduler noise while still catching a
// lock or an allocation sneaking onto the hot path).
const maxObsOverheadRatio = 1.5

// diffObs gates an obsbench report. The overhead ratio is a within-run
// ratio (machine-portable), gated against its hard ceiling and the
// committed baseline; the three allocs-per-op guards must be exactly
// zero; the scraped series count and the span plan — planned count and
// fnv1a ID digest, pure functions of the seed — must reproduce the
// baseline exactly; and an error-free run must collect every planned
// span. The raw p99 columns are printed for context only.
func diffObs(out io.Writer, basePath, curPath string, tolerance float64) error {
	base, err := obsbench.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := obsbench.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: obs baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	if base.Seed != cur.Seed || base.SpanSampleEvery != cur.SpanSampleEvery {
		return fmt.Errorf("configurations differ (baseline seed %d / 1-in-%d sampling, current %d / %d): span plans are not comparable",
			base.Seed, base.SpanSampleEvery, cur.Seed, cur.SpanSampleEvery)
	}
	fmt.Fprintf(out, "  %-26s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "metrics-off p99 ms", base.OffP99Ms, cur.OffP99Ms, pct(base.OffP99Ms, cur.OffP99Ms))
	fmt.Fprintf(out, "  %-26s %12.2f %12.2f %10s\n", "metrics-on p99 ms", base.OnP99Ms, cur.OnP99Ms, pct(base.OnP99Ms, cur.OnP99Ms))
	fmt.Fprintf(out, "  %-26s %12.3f %12.3f %10s\n", "overhead ratio", base.OverheadRatio, cur.OverheadRatio, pct(base.OverheadRatio, cur.OverheadRatio))
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "series scraped", base.SeriesCount, cur.SeriesCount)
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f\n", "counter allocs/op", base.CounterIncAllocs, cur.CounterIncAllocs)
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f\n", "gauge allocs/op", base.GaugeSetAllocs, cur.GaugeSetAllocs)
	fmt.Fprintf(out, "  %-26s %12.1f %12.1f\n", "histogram allocs/op", base.HistObserveAllocs, cur.HistObserveAllocs)
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "spans planned", base.SpansPlanned, cur.SpansPlanned)
	fmt.Fprintf(out, "  %-26s %12d %12d\n", "spans collected", base.SpansCollected, cur.SpansCollected)
	fmt.Fprintf(out, "  %-26s %25s\n", "span digest", cur.SpanDigest)

	var failures []string
	if cur.OverheadRatio > maxObsOverheadRatio {
		failures = append(failures, fmt.Sprintf("overhead ratio %.3f above the %.1f ceiling: instrumentation moved the tail", cur.OverheadRatio, maxObsOverheadRatio))
	}
	// The relative gate floors the baseline at 1.0: a sub-1.0 measured
	// ratio is scheduler noise around "no overhead", and letting it
	// tighten the gate below the ceiling would make the gate flaky.
	if refRatio := math.Max(base.OverheadRatio, 1.0); base.OverheadRatio > 0 && cur.OverheadRatio > refRatio*(1+tolerance) {
		failures = append(failures, fmt.Sprintf("overhead ratio regressed %s (%.3f -> %.3f)",
			pct(base.OverheadRatio, cur.OverheadRatio), base.OverheadRatio, cur.OverheadRatio))
	}
	if cur.CounterIncAllocs != 0 || cur.GaugeSetAllocs != 0 || cur.HistObserveAllocs != 0 {
		failures = append(failures, fmt.Sprintf("metric hot path allocates (counter=%.1f gauge=%.1f histogram=%.1f allocs/op): zero-allocation guarantee broken",
			cur.CounterIncAllocs, cur.GaugeSetAllocs, cur.HistObserveAllocs))
	}
	if cur.SeriesCount != base.SeriesCount {
		failures = append(failures, fmt.Sprintf("scraped series count changed (%d -> %d): the front-end's registration set drifted",
			base.SeriesCount, cur.SeriesCount))
	}
	if cur.SpansPlanned != base.SpansPlanned {
		failures = append(failures, fmt.Sprintf("planned span count changed (%d -> %d): the sampling decision is not reproducing",
			base.SpansPlanned, cur.SpansPlanned))
	}
	if cur.SpanDigest != base.SpanDigest {
		failures = append(failures, fmt.Sprintf("span digest changed (%s -> %s): the minted span IDs are not reproducing",
			base.SpanDigest, cur.SpanDigest))
	}
	if cur.SpansCollected != cur.SpansPlanned {
		failures = append(failures, fmt.Sprintf("collected %d of %d planned spans: breakdowns are being dropped on an error-free run",
			cur.SpansCollected, cur.SpansPlanned))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// minAvailability is the hard floor every chaos report must clear
// regardless of the baseline — the acceptance bar of the
// fault-tolerance subsystem.
const minAvailability = 0.99

// diffChaos gates a chaos report. The fault timeline and the repair
// decision log are deterministic per seed, so their digests must match
// the baseline exactly; availability is gated both against the
// baseline (absolute delta) and against the hard 99% floor; detection
// must stay within the baseline's failed-probe budget (ejection before
// the 3rd failed probe in the committed baseline); p99-during-fault is
// the machine-dependent latency column and gets the relative
// tolerance. Time-to-eject, time-to-repair, and hedge win rate are
// printed for context — they move with host speed.
func diffChaos(out io.Writer, basePath, curPath string, tolerance, errDelta float64, ignoreSchedule bool) error {
	base, err := faults.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := faults.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: chaos baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	fmt.Fprintf(out, "  %-22s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-22s %12.4f %12.4f %10s\n", "availability", base.Availability, cur.Availability, pct(base.Availability, cur.Availability))
	fmt.Fprintf(out, "  %-22s %12.2f %12.2f %10s\n", "p99 ms", base.Latency.P99Ms, cur.Latency.P99Ms, pct(base.Latency.P99Ms, cur.Latency.P99Ms))
	fmt.Fprintf(out, "  %-22s %12.2f %12.2f %10s\n", "p99 during fault ms", base.FaultLatency.P99Ms, cur.FaultLatency.P99Ms, pct(base.FaultLatency.P99Ms, cur.FaultLatency.P99Ms))
	fmt.Fprintf(out, "  %-22s %12d %12d\n", "max probes to eject", base.MaxProbesToEject, cur.MaxProbesToEject)
	fmt.Fprintf(out, "  %-22s %12.0f %12.0f %10s\n", "mean eject ms", base.MeanTimeToEject, cur.MeanTimeToEject, pct(base.MeanTimeToEject, cur.MeanTimeToEject))
	fmt.Fprintf(out, "  %-22s %12.0f %12.0f %10s\n", "mean repair ms", base.MeanTimeToRepair, cur.MeanTimeToRepair, pct(base.MeanTimeToRepair, cur.MeanTimeToRepair))
	fmt.Fprintf(out, "  %-22s %12d %12d\n", "repairs", base.Repairs, cur.Repairs)
	fmt.Fprintf(out, "  %-22s %12.2f %12.2f\n", "hedge win rate", base.HedgeWinRate, cur.HedgeWinRate)

	if base.ScheduleDigest != cur.ScheduleDigest {
		msg := fmt.Sprintf("schedule digests differ (%s vs %s): runs replay different request sequences",
			base.ScheduleDigest, cur.ScheduleDigest)
		if !ignoreSchedule {
			return fmt.Errorf("%s (use -ignore-schedule to compare anyway)", msg)
		}
		fmt.Fprintf(out, "  warning: %s\n", msg)
	}
	var failures []string
	sameSchedule := base.ScheduleDigest == cur.ScheduleDigest
	if sameSchedule && base.FaultDigest != cur.FaultDigest {
		failures = append(failures, fmt.Sprintf("fault digest changed (%s -> %s): the chaos timeline is not reproducing",
			base.FaultDigest, cur.FaultDigest))
	}
	if sameSchedule && base.FaultDigest == cur.FaultDigest && base.DecisionDigest != cur.DecisionDigest {
		failures = append(failures, fmt.Sprintf("decision digest changed (%s -> %s): detection or repair behaves differently",
			base.DecisionDigest, cur.DecisionDigest))
	}
	if cur.Availability < minAvailability {
		failures = append(failures, fmt.Sprintf("availability %.4f below the %.2f floor", cur.Availability, minAvailability))
	}
	if cur.Availability < base.Availability-errDelta {
		failures = append(failures, fmt.Sprintf("availability fell %.4f -> %.4f (allowed delta %.3f)",
			base.Availability, cur.Availability, errDelta))
	}
	if base.MaxProbesToEject > 0 && cur.MaxProbesToEject > base.MaxProbesToEject {
		failures = append(failures, fmt.Sprintf("detection slowed: %d failed probes to eject vs baseline %d",
			cur.MaxProbesToEject, base.MaxProbesToEject))
	}
	if base.FaultLatency.P99Ms > 0 && cur.FaultLatency.P99Ms > base.FaultLatency.P99Ms*(1+tolerance) {
		failures = append(failures, fmt.Sprintf("p99 during fault regressed %s (%.2f -> %.2f ms)",
			pct(base.FaultLatency.P99Ms, cur.FaultLatency.P99Ms), base.FaultLatency.P99Ms, cur.FaultLatency.P99Ms))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}

// peekSchema reads only the schema discriminator of a report file.
func peekSchema(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }()
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(f).Decode(&head); err != nil {
		return "", fmt.Errorf("peek %s: %w", path, err)
	}
	return head.Schema, nil
}

// diffAutoscale gates an autoscale report on its p99 and cost columns.
func diffAutoscale(out io.Writer, basePath, curPath string, tolerance, errDelta float64, ignoreSchedule bool) error {
	base, err := autoscale.ReadReportFile(basePath)
	if err != nil {
		return err
	}
	cur, err := autoscale.ReadReportFile(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: autoscale baseline %s vs current %s (tolerance %.0f%%)\n",
		basePath, curPath, 100*tolerance)
	fmt.Fprintf(out, "  %-18s %12s %12s %10s\n", "metric", "baseline", "current", "change")
	fmt.Fprintf(out, "  %-18s %12.2f %12.2f %10s\n", "p99 ms", base.Latency.P99Ms, cur.Latency.P99Ms, pct(base.Latency.P99Ms, cur.Latency.P99Ms))
	fmt.Fprintf(out, "  %-18s %12.6f %12.6f %10s\n", "adaptive cost $", base.AdaptiveCostUSD, cur.AdaptiveCostUSD, pct(base.AdaptiveCostUSD, cur.AdaptiveCostUSD))
	fmt.Fprintf(out, "  %-18s %12.1f %12.1f %10s\n", "savings %", base.SavingsPct, cur.SavingsPct, pct(base.SavingsPct, cur.SavingsPct))
	fmt.Fprintf(out, "  %-18s %12.3f %12.3f %10s\n", "error rate", base.ErrorRate, cur.ErrorRate, pct(base.ErrorRate, cur.ErrorRate))

	if base.ScheduleDigest != cur.ScheduleDigest {
		msg := fmt.Sprintf("schedule digests differ (%s vs %s): runs replay different request sequences",
			base.ScheduleDigest, cur.ScheduleDigest)
		if !ignoreSchedule {
			return fmt.Errorf("%s (use -ignore-schedule to compare anyway)", msg)
		}
		fmt.Fprintf(out, "  warning: %s\n", msg)
	}
	var failures []string
	// Same schedule ⇒ the control cycle is deterministic; a digest
	// change means the reconciler decided differently, which is a
	// behaviour change to review, not measurement noise.
	if base.ScheduleDigest == cur.ScheduleDigest && base.DecisionDigest != cur.DecisionDigest {
		failures = append(failures, fmt.Sprintf("decision digest changed (%s -> %s): the control cycle behaves differently",
			base.DecisionDigest, cur.DecisionDigest))
	}
	if base.Latency.P99Ms > 0 && cur.Latency.P99Ms > base.Latency.P99Ms*(1+tolerance) {
		failures = append(failures, fmt.Sprintf("p99 latency regressed %s (%.2f -> %.2f ms)",
			pct(base.Latency.P99Ms, cur.Latency.P99Ms), base.Latency.P99Ms, cur.Latency.P99Ms))
	}
	if base.AdaptiveCostUSD > 0 && cur.AdaptiveCostUSD > base.AdaptiveCostUSD*(1+tolerance) {
		failures = append(failures, fmt.Sprintf("adaptive cost regressed %s ($%.6f -> $%.6f)",
			pct(base.AdaptiveCostUSD, cur.AdaptiveCostUSD), base.AdaptiveCostUSD, cur.AdaptiveCostUSD))
	}
	if cur.ErrorRate > base.ErrorRate+errDelta {
		failures = append(failures, fmt.Sprintf("error rate rose %.3f -> %.3f (allowed delta %.3f)",
			base.ErrorRate, cur.ErrorRate, errDelta))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(out, "  REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance", len(failures), 100*tolerance)
	}
	fmt.Fprintln(out, "  OK: within tolerance")
	return nil
}
