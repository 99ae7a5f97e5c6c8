package main

// metricDef names one reported metric. BENCHMARK.json records the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the stack sees, per workload, from
// the untraced run.
var endToEnd = []metricDef{
	{"offloads_per_s", "1/s", true, 0.20},
	{"lat_p50_ms", "ms", false, 0.20},
	{"lat_p90_ms", "ms", false, 0.25},
	{"cpu_us_per_offload", "us", false, 0.20},
	{"allocs_per_offload", "count", false, 0.01},
	{"bytes_per_offload", "B", false, 0.01},
	{"setup_s", "s", false, 0.25},
}

// perLayer are the traced run's numbers: the hop ledger of the workload,
// the layer drills, and the counts and runtime figures. Layer = module
// name before the dot.
var perLayer = []metricDef{
	{name: "trace_overhead", unit: "ratio", higher: true},
	// hop ledger, median µs over the workload's traced calls
	{name: "rpc.front_hop_us", unit: "us"},
	{name: "sdn.routing_us", unit: "us"},
	{name: "serve.queue_us", unit: "us"},
	{name: "serve.linger_us", unit: "us"},
	{name: "rpc.back_hop_us", unit: "us"},
	{name: "dalvik.exec_us", unit: "us"},
	// layer drills
	{name: "router.pick_release_ns", unit: "ns"},
	{name: "router.pick_release_allocs", unit: "count"},
	{name: "serve.submit_ns", unit: "ns"},
	{name: "serve.submit_allocs", unit: "count"},
	{name: "serve.submit_fanin_ns", unit: "ns"},
	{name: "serve.batch_occupancy", unit: "count", higher: true},
	{name: "wire.enc_req_ns", unit: "ns"},
	{name: "wire.dec_req_ns", unit: "ns"},
	{name: "wire.dec_req_allocs", unit: "count"},
	{name: "wire.enc_resp_ns", unit: "ns"},
	{name: "wire.dec_resp_ns", unit: "ns"},
	{name: "wire.dec_resp_allocs", unit: "count"},
	{name: "wire.frame_ns", unit: "ns"},
	{name: "wire.frame_allocs", unit: "count"},
	{name: "wire.enc_req_large_ns", unit: "ns"},
	{name: "wire.dec_req_large_ns", unit: "ns"},
	{name: "wire.call_us", unit: "us"},
	{name: "wire.call_allocs", unit: "count"},
	{name: "wire.call_fanin_us", unit: "us"},
	{name: "rpc.hop_json_us", unit: "us"},
	{name: "rpc.hop_json_allocs", unit: "count"},
	{name: "rpc.hop_json_large_us", unit: "us"},
	{name: "rpc.hop_bin_us", unit: "us"},
	{name: "rpc.hop_bin_allocs", unit: "count"},
	{name: "sdn.offload_inproc_us", unit: "us"},
	{name: "sdn.offload_inproc_allocs", unit: "count"},
	{name: "sdn.offload_keyed_us", unit: "us"},
	{name: "dalvik.execute_us", unit: "us"},
	{name: "tasks.exec_us", unit: "us"},
	{name: "trace.append_ns", unit: "ns"},
	{name: "trace.append_allocs", unit: "count"},
	{name: "obs.observe_ns", unit: "ns"},
	{name: "obs.observe_par_ns", unit: "ns"},
	// counts and runtime, per traced workload
	{name: "dalvik.executed", unit: "count", higher: true},
	{name: "dalvik.rejected", unit: "count"},
	{name: "rpc.retries", unit: "count"},
	{name: "trace.dropped", unit: "count"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "go.heap_mb_end", unit: "MB"},
	{name: "go.peak_rss_mb", unit: "MB"},
	{name: "gen.lag_p99_ms", unit: "ms"},
	{name: "gen.lat_p99_ms", unit: "ms"},
	{name: "gen.window_spread", unit: "ratio"},
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}
