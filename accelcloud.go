// Package accelcloud is a Go reproduction of "Modeling Mobile Code
// Acceleration in the Cloud" (Flores et al., ICDCS 2017): Code
// Acceleration as a Service.
//
// The library models and controls the level of acceleration that mobile
// code offloading obtains from the cloud. Cloud instances are benchmarked
// and clustered into acceleration groups (Benchmark/Classify); an
// SDN-accelerator front-end routes each offloading request to the group
// its device requests (Accelerator for simulations, FrontEnd over HTTP);
// devices promote themselves when response times degrade
// (PromotionPolicy); and an adaptive model predicts the next interval's
// per-group workload from the request log (Predictor) and provisions the
// cost-minimal instance mix for it by integer programming (Allocate).
//
// The full system — workload, front-end, pools, prediction, allocation —
// is assembled by System (see NewSystem), and every figure of the paper's
// evaluation can be regenerated through the Fig4…Fig11 functions exposed
// by cmd/accelsim and the root benchmarks.
//
// Quick start:
//
//	sys, err := accelcloud.NewSystem(accelcloud.SystemConfig{
//		Groups: []accelcloud.GroupSpec{
//			{Group: 1, TypeName: "t2.nano", Capacity: 30, Initial: 1},
//			{Group: 2, TypeName: "t2.large", Capacity: 90, Initial: 1},
//		},
//	})
//	...
//	result, err := sys.Run(requests, 8*time.Hour)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package accelcloud

import (
	"context"
	"math/rand"
	"time"

	"accelcloud/internal/allocate"
	"accelcloud/internal/autoscale"
	"accelcloud/internal/cloud"
	"accelcloud/internal/core"
	"accelcloud/internal/dalvik"
	"accelcloud/internal/device"
	"accelcloud/internal/faults"
	"accelcloud/internal/geo"
	"accelcloud/internal/groups"
	"accelcloud/internal/health"
	"accelcloud/internal/loadgen"
	"accelcloud/internal/netsim"
	"accelcloud/internal/predict"
	"accelcloud/internal/qsim"
	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/sim"
	"accelcloud/internal/stats"
	"accelcloud/internal/tasks"
	"accelcloud/internal/trace"
	"accelcloud/internal/wire"
	"accelcloud/internal/workload"
)

// Core system (the paper's contribution, §IV).
type (
	// System is the assembled architecture: workload → SDN-accelerator →
	// acceleration-group pools, with the predict/allocate control loop.
	System = core.System
	// SystemConfig parameterizes a System.
	SystemConfig = core.Config
	// GroupSpec binds an acceleration group to an instance type.
	GroupSpec = core.GroupSpec
	// BackgroundLoad induces per-server load (§VI-C1).
	BackgroundLoad = core.BackgroundLoad
	// Result is a system run's collected logs.
	Result = core.Result
	// RequestLog is one completed request.
	RequestLog = core.RequestLog
	// PromotionEvent is one device promotion.
	PromotionEvent = core.PromotionEvent
	// IntervalLog is one provisioning round.
	IntervalLog = core.IntervalLog
)

// NewSystem builds a System; see core.New.
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// Cloud substrate (§VI-A).
type (
	// InstanceType is one purchasable server type.
	InstanceType = cloud.InstanceType
	// Catalog indexes instance types.
	Catalog = cloud.Catalog
	// Instance is a launched server with live burst-credit state.
	Instance = cloud.Instance
)

// DefaultCatalog returns the paper's eight instance types.
func DefaultCatalog() *Catalog { return cloud.DefaultCatalog() }

// Acceleration groups (§VI-A, §IV-C1).
type (
	// Measurement is one instance type's characterization.
	Measurement = groups.Measurement
	// BenchmarkConfig tunes the characterization.
	BenchmarkConfig = groups.BenchmarkConfig
	// Grouping maps instance types to acceleration levels.
	Grouping = groups.Grouping
	// Level is one acceleration group.
	Level = groups.Level
)

// Benchmark characterizes one instance type under concurrent load.
func Benchmark(typ InstanceType, cfg BenchmarkConfig) (Measurement, error) {
	return groups.Benchmark(typ, cfg)
}

// Classify clusters measurements into acceleration levels.
func Classify(ms []Measurement, tol float64) (*Grouping, error) {
	return groups.Classify(ms, tol)
}

// DefaultBenchmarkConfig mirrors §VI-A1.
func DefaultBenchmarkConfig() BenchmarkConfig { return groups.DefaultBenchmarkConfig() }

// Prediction (§IV-B).
type (
	// Predictor estimates the next time slot from history.
	Predictor = predict.Predictor
	// EditDistanceNN is the paper's nearest-neighbour model.
	EditDistanceNN = predict.EditDistanceNN
	// Slot is one time slot of the trace.
	Slot = trace.Slot
	// TraceRecord is one request-log row.
	TraceRecord = trace.Record
	// TraceStore is the append-only request log.
	TraceStore = trace.Store
)

// NewTraceStore returns an empty request log.
func NewTraceStore() *TraceStore { return trace.NewStore() }

// BuildHourlySlots folds records into n consecutive one-hour slots from
// Epoch over numGroups acceleration groups (§IV-A).
func BuildHourlySlots(records []TraceRecord, n, numGroups int) ([]Slot, error) {
	return trace.BuildSlots(records, sim.Epoch, time.Hour, n, numGroups)
}

// Allocation (§IV-C).
type (
	// AllocSpec describes one allocatable instance type.
	AllocSpec = allocate.Spec
	// AllocProblem is one allocation round.
	AllocProblem = allocate.Problem
	// AllocPlan is the allocator's decision.
	AllocPlan = allocate.Plan
)

// Allocate solves the cost-minimal covering problem (eq. 1–3).
func Allocate(p *AllocProblem) (AllocPlan, error) { return allocate.Solve(p) }

// Devices and the client-side moderator (§IV-A, §VI-C3).
type (
	// Device is one simulated handset.
	Device = device.Device
	// DeviceProfile is a hardware class.
	DeviceProfile = device.Profile
	// PromotionPolicy is the moderator's promotion rule.
	PromotionPolicy = device.PromotionPolicy
	// StaticProbability is the paper's 1/50 policy.
	StaticProbability = device.StaticProbability
)

// DefaultProfiles returns the four device classes.
func DefaultProfiles() []DeviceProfile { return device.DefaultProfiles() }

// Tasks (the offloadable pool, §V).
type (
	// Task is one offloadable computation.
	Task = tasks.Task
	// TaskPool is the registry of offloadable tasks.
	TaskPool = tasks.Pool
	// TaskState is serialized application state.
	TaskState = tasks.State
	// TaskResult is an execution outcome.
	TaskResult = tasks.Result
)

// DefaultTaskPool returns the paper's 10-task pool.
func DefaultTaskPool() *TaskPool { return tasks.DefaultPool() }

// InferenceTaskPool returns the 10-task pool extended with the
// session-amortized ML-inference family (infer-mobilenet,
// infer-inception, infer-lstm).
func InferenceTaskPool() *TaskPool { return tasks.InferencePool() }

// Workload generation (§V, §VI-C1).
type (
	// WorkloadRequest is one offloading event.
	WorkloadRequest = workload.Request
	// InterArrivalConfig parameterizes the realistic workload mode.
	InterArrivalConfig = workload.InterArrivalConfig
	// ConcurrentConfig parameterizes the benchmark mode.
	ConcurrentConfig = workload.ConcurrentConfig
	// Sizer draws task sizes.
	Sizer = workload.Sizer
	// FixedSizer always draws one size (static-load experiments).
	FixedSizer = workload.FixedSizer
	// Dist is a sampleable distribution (milliseconds for workloads).
	Dist = stats.Dist
	// UniformDist is the continuous uniform distribution.
	UniformDist = stats.Uniform
)

// DefaultSizer balances the ten pool tasks (see workload.DefaultSizer).
func DefaultSizer() Sizer { return workload.DefaultSizer() }

// GenerateInterArrival builds a realistic request stream.
func GenerateInterArrival(r *rand.Rand, start time.Time, cfg InterArrivalConfig) ([]WorkloadRequest, error) {
	return workload.GenerateInterArrival(r, start, cfg)
}

// GenerateConcurrent builds the benchmark-mode wave workload.
func GenerateConcurrent(r *rand.Rand, start time.Time, cfg ConcurrentConfig) ([]WorkloadRequest, error) {
	return workload.GenerateConcurrent(r, start, cfg)
}

// Population-scale scenario engine: lazy per-block request streams with
// diurnal rate curves and flash crowds, merged in time order at
// O(shards) resident memory. The schedule digest is invariant to the
// shard count, so a parallel consumer replays the identical workload.
type (
	// WorkloadStream lazily yields a time-ordered request schedule.
	WorkloadStream = workload.Stream
	// ScenarioConfig parameterizes the population-scale scenario mode.
	ScenarioConfig = workload.ScenarioConfig
	// FlashCrowd is one bounded demand surge over a user cohort.
	FlashCrowd = workload.FlashCrowd
)

// NewScenarioStream builds the full scenario schedule as one stream.
func NewScenarioStream(root *RNG, cfg ScenarioConfig) (WorkloadStream, error) {
	return workload.NewScenarioStream(root, cfg)
}

// ScenarioShards splits the scenario population into shard streams;
// merging them (MergeStreams) reproduces the single-stream schedule
// bit-for-bit.
func ScenarioShards(root *RNG, cfg ScenarioConfig, shards int) ([]WorkloadStream, error) {
	return workload.ScenarioShards(root, cfg, shards)
}

// MergeStreams interleaves time-ordered streams into one.
func MergeStreams(streams ...WorkloadStream) WorkloadStream {
	return workload.NewMerge(streams...)
}

// StreamDigest drains a stream into its fnv1a schedule digest and
// request count.
func StreamDigest(s WorkloadStream, start time.Time) (string, int) {
	return workload.StreamDigest(s, start)
}

// ScenarioStart is the virtual origin scenario digests are taken from.
func ScenarioStart() time.Time { return workload.ScenarioStart() }

// DefaultDiurnal is the 24-point diurnal rate curve.
func DefaultDiurnal() []float64 { return workload.DefaultDiurnal() }

// Deterministic randomness.
type (
	// RNG derives named deterministic random streams from a root seed.
	RNG = sim.RNG
)

// NewRNG returns a stream factory rooted at seed.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// Epoch is the virtual time origin of all simulations.
var Epoch = sim.Epoch

// Networked offloading (the real-socket plane, §V).
type (
	// Surrogate is the Dalvik-x86-like execution server.
	Surrogate = dalvik.Surrogate
	// RPCClient calls offloading endpoints over JSON/HTTP, or over the
	// binary framed protocol when built from a bin:// base URL.
	RPCClient = rpc.Client
	// OffloadRequest is the client → front-end message.
	OffloadRequest = rpc.OffloadRequest
	// OffloadResponse is the front-end's reply.
	OffloadResponse = rpc.OffloadResponse
	// WireServer serves the binary framed protocol (DESIGN.md §8).
	WireServer = wire.Server
)

// BinaryScheme prefixes binary framed-protocol addresses
// (bin://host:port) anywhere a front-end or backend URL is accepted.
const BinaryScheme = rpc.BinaryScheme

// NewSurrogate creates an execution server; push tasks before serving.
func NewSurrogate(name string, maxProcs int) (*Surrogate, error) {
	return dalvik.NewSurrogate(name, maxProcs)
}

// RPCClientOption configures NewRPCClient; see the RPCWith*
// constructors below.
type RPCClientOption = rpc.ClientOption

// NewRPCClient builds a client for a front-end or surrogate base URL.
// Options replace the historical field pokes:
//
//	c.Timeout = d       → NewRPCClient(url, RPCWithTimeout(d))
//	c.Retry = &policy   → NewRPCClient(url, RPCWithRetry(policy))
//	c.Hedge = &policy   → NewRPCClient(url, RPCWithHedge(policy))
func NewRPCClient(baseURL string, opts ...RPCClientOption) *RPCClient {
	return rpc.NewClient(baseURL, opts...)
}

// Functional options for NewRPCClient.
var (
	// RPCWithTimeout sets the per-call deadline.
	RPCWithTimeout = rpc.WithTimeout
	// RPCWithRetry installs the bounded retry budget.
	RPCWithRetry = rpc.WithRetry
	// RPCWithHedge installs the straggler-hedging policy.
	RPCWithHedge = rpc.WithHedge
)

// WaitHealthy polls a server's health endpoint until it responds.
func WaitHealthy(ctx context.Context, baseURL string) error {
	return sdn.WaitHealthy(ctx, baseURL)
}

// Moderator policies beyond the default (§VII-3).
type (
	// ThresholdPolicy promotes after consecutive slow responses.
	ThresholdPolicy = device.Threshold
	// BatteryAwarePolicy promotes on low battery.
	BatteryAwarePolicy = device.BatteryAware
	// NeverPolicy disables promotion (ablation baseline).
	NeverPolicy = device.Never
	// DemotionPolicy re-assigns over-served devices to cheaper groups.
	DemotionPolicy = device.DemotionPolicy
	// FastResponsePolicy demotes after consecutive fast responses.
	FastResponsePolicy = device.FastResponse
	// NoDemotionPolicy keeps earned levels (the paper's behaviour).
	NoDemotionPolicy = device.NoDemotion
)

// NewDevice creates a fully charged handset in the given group.
func NewDevice(id int, p DeviceProfile, startGroup int) (*Device, error) {
	return device.New(id, p, startGroup)
}

// ProfileByName finds a device profile in a set.
func ProfileByName(profiles []DeviceProfile, name string) (DeviceProfile, error) {
	return device.ProfileByName(profiles, name)
}

// Network models (§VI-C4).
type (
	// NetOperator is one cellular carrier's latency model.
	NetOperator = netsim.Operator
	// NetTech selects 3G or LTE.
	NetTech = netsim.Tech
)

// NetTech values.
const (
	Tech3G  = netsim.Tech3G
	TechLTE = netsim.TechLTE
)

// DefaultOperators returns the three calibrated carriers α, β, γ.
func DefaultOperators() ([]NetOperator, error) { return netsim.DefaultOperators() }

// SDN front-end (networked plane, §V).
type (
	// FrontEnd is the HTTP SDN-accelerator.
	FrontEnd = sdn.FrontEnd
	// QueueConfig tunes simulated backend servers.
	QueueConfig = qsim.Config
)

// FrontEndOption configures NewSDNFrontEnd; see the With* constructors
// below.
type FrontEndOption = sdn.Option

// ObserverRef late-binds a front-end observer, resolving the
// front-end↔health-manager construction cycle without mutators: build
// the front-end with WithObserver(ref.Observe), then ref.Set the
// manager's hook.
type ObserverRef = sdn.ObserverRef

// NewSDNFrontEnd builds an HTTP front-end from functional options.
// Zero options give a round-robin router with no trace sink — the
// historical NewFrontEnd(nil, 0) behaviour.
//
// Migration from the positional constructors and mutators:
//
//	NewFrontEnd(log, delay)                 → NewSDNFrontEnd(WithTrace(log), WithRouteDelay(delay))
//	NewFrontEndWithPolicy(log, delay, pol)  → NewSDNFrontEnd(WithTrace(log), WithRouteDelay(delay), WithPolicy(pol))
//	fe.SetBackendTimeout(d)                 → WithBackendTimeout(d)
//	fe.SetObserver(mgr.Observe)             → WithObserver(ref.Observe) + ref.Set(mgr.Observe)
//
// New serving knobs have no legacy equivalent: WithQueue (bounded
// per-backend admission), WithBatching (server-side dynamic batching),
// WithColdPool (scale-to-zero).
func NewSDNFrontEnd(opts ...FrontEndOption) (*FrontEnd, error) {
	return sdn.New(opts...)
}

// Functional options for NewSDNFrontEnd.
var (
	// WithTrace installs the request trace sink (nil disables logging).
	WithTrace = sdn.WithTrace
	// WithRouteDelay adds the paper's fixed SDN processing overhead.
	WithRouteDelay = sdn.WithRouteDelay
	// WithPolicy selects the pick policy (ParseRouterPolicy resolves
	// names, including "canary:<version>=<weight>").
	WithPolicy = sdn.WithPolicy
	// WithObserver installs the per-request outcome hook the failure
	// detector subscribes to.
	WithObserver = sdn.WithObserver
	// WithBackendTimeout bounds the proxy hop to each backend.
	WithBackendTimeout = sdn.WithBackendTimeout
	// WithQueue puts a bounded admission queue in front of every
	// backend (limit concurrent dispatches, depth waiting).
	WithQueue = sdn.WithQueue
	// WithBatching coalesces queued same-task calls into one batch
	// execution per dispatch; requires WithQueue.
	WithBatching = sdn.WithBatching
	// WithColdPool enables scale-to-zero with a simulated cold-start
	// latency.
	WithColdPool = sdn.WithColdPool
)

// NewFrontEnd builds an HTTP front-end; processingDelay optionally
// reproduces the paper's ≈150 ms routing overhead.
//
// Deprecated: use NewSDNFrontEnd(WithTrace(log), WithRouteDelay(processingDelay)).
func NewFrontEnd(log *TraceStore, processingDelay time.Duration) (*FrontEnd, error) {
	return sdn.New(sdn.WithTrace(log), sdn.WithRouteDelay(processingDelay))
}

// Lock-free routing data plane (DESIGN.md §6).
type (
	// RouterPolicy is a pluggable backend pick policy.
	RouterPolicy = router.Policy
	// RouterBenchReport is the BENCH_router.json micro-benchmark
	// outcome.
	RouterBenchReport = router.BenchReport
	// TraceAsync is the bounded batching sink that keeps trace
	// persistence off the request hot path.
	TraceAsync = trace.Async
)

// ParseRouterPolicy resolves "rr", "least-inflight", or "p2c" (empty
// selects round-robin).
func ParseRouterPolicy(name string) (RouterPolicy, error) { return router.ParsePolicy(name) }

// NewFrontEndWithPolicy builds an HTTP front-end with an explicit pick
// policy.
//
// Deprecated: use NewSDNFrontEnd(WithTrace(log),
// WithRouteDelay(processingDelay), WithPolicy(policy)).
func NewFrontEndWithPolicy(log trace.Sink, processingDelay time.Duration, policy RouterPolicy) (*FrontEnd, error) {
	return sdn.New(sdn.WithTrace(log), sdn.WithRouteDelay(processingDelay), sdn.WithPolicy(policy))
}

// NewTraceAsync wraps a trace sink in the async batching pipeline
// (buffer/flushEvery 0 select the defaults). See trace.NewAsync.
func NewTraceAsync(down trace.Sink, buffer int, flushEvery time.Duration) (*TraceAsync, error) {
	return trace.NewAsync(down, buffer, flushEvery)
}

// Load generation and SLO reporting (service-layer benchmarking).
type (
	// LoadgenConfig parameterizes one load-generation run.
	LoadgenConfig = loadgen.Config
	// LoadgenReport is the machine-readable run outcome.
	LoadgenReport = loadgen.Report
	// LoadgenSLO is a service-level objective checked into the report.
	LoadgenSLO = loadgen.SLO
	// LoadgenCluster is the hermetic in-process service stack.
	LoadgenCluster = loadgen.Cluster
	// LogHist is the log-bucketed latency histogram behind the
	// p50/p90/p99/p999 SLO summaries.
	LogHist = stats.LogHist
)

// Loadgen replay disciplines.
const (
	LoadgenConcurrent   = loadgen.ModeConcurrent
	LoadgenInterArrival = loadgen.ModeInterArrival
	LoadgenSweep        = loadgen.ModeSweep
)

// NewLatencyHist returns the standard latency histogram (10 µs – 10 min,
// ≤5% relative error per bucket).
func NewLatencyHist() *LogHist { return stats.NewLatencyHist() }

// RunLoadgen replays a deterministic multi-user schedule against a
// front-end and returns the SLO report.
func RunLoadgen(ctx context.Context, baseURL string, cfg LoadgenConfig) (*LoadgenReport, error) {
	return loadgen.Run(ctx, baseURL, cfg)
}

// StartLoadgenCluster boots an in-process front-end + surrogates stack
// for hermetic load tests; callers must Close it.
func StartLoadgenCluster(cfg loadgen.ClusterConfig) (*LoadgenCluster, error) {
	return loadgen.StartCluster(cfg)
}

// Autoscaling control loop (DESIGN.md §5): the live
// predict→allocate→provision cycle reconciling the SDN front-end's
// per-group surrogate pools against predicted demand.
type (
	// Autoscaler is the slot-driven reconciler.
	Autoscaler = autoscale.Controller
	// AutoscaleConfig parameterizes an Autoscaler.
	AutoscaleConfig = autoscale.Config
	// AutoscaleGroupSpec binds a managed group to its economics.
	AutoscaleGroupSpec = autoscale.GroupSpec
	// AutoscaleDecision is one slot's control-cycle outcome.
	AutoscaleDecision = autoscale.Decision
	// AutoscaleSweepConfig parameterizes the hermetic end-to-end run.
	AutoscaleSweepConfig = autoscale.SweepConfig
	// AutoscaleReport is the BENCH_autoscale.json schema.
	AutoscaleReport = autoscale.Report
	// AutoscaleProvisioner boots surrogates for the warm pool.
	AutoscaleProvisioner = autoscale.Provisioner
	// HermeticProvisioner boots in-process surrogates on loopback
	// sockets.
	HermeticProvisioner = autoscale.HermeticProvisioner
	// TraceSink receives request records (Store, Window, or a Tee).
	TraceSink = trace.Sink
	// TraceWindow is the live sliding-window request log feeding the
	// predictor.
	TraceWindow = trace.Window
)

// NewAutoscaler builds the reconciler; call Prime before traffic.
func NewAutoscaler(cfg AutoscaleConfig) (*Autoscaler, error) { return autoscale.New(cfg) }

// RunAutoscaleSweep executes the hermetic doubling-rate scenario: a
// live stack scales per-group pools up through the ramp and back down
// through the drain slots, bit-reproducibly per seed.
func RunAutoscaleSweep(ctx context.Context, cfg AutoscaleSweepConfig) (*AutoscaleReport, error) {
	return autoscale.RunSweep(ctx, cfg)
}

// NewTraceWindow builds the sliding-window request log for live control
// loops.
func NewTraceWindow(start time.Time, slotLen time.Duration, numGroups, maxSlots int) (*TraceWindow, error) {
	return trace.NewWindow(start, slotLen, numGroups, maxSlots)
}

// Fault tolerance (DESIGN.md §7): the failure detector ejecting sick
// backends from rotation, and the deterministic chaos engine proving
// the stack survives crashes, hangs, error bursts, and slow networks.
type (
	// HealthManager is the active-probe + passive-outlier failure
	// detector feeding the router's Eject/Reinstate levers.
	HealthManager = health.Manager
	// HealthConfig parameterizes a HealthManager.
	HealthConfig = health.Config
	// BackendHealth is one backend's health snapshot.
	BackendHealth = health.BackendHealth
	// FaultSchedule is a deterministic seeded chaos timeline.
	FaultSchedule = faults.Schedule
	// FaultScheduleConfig parameterizes fault-schedule generation.
	FaultScheduleConfig = faults.ScheduleConfig
	// FaultEvent is one scheduled failure.
	FaultEvent = faults.Event
	// ChaosConfig parameterizes one hermetic chaos run.
	ChaosConfig = faults.Config
	// ChaosReport is the BENCH_chaos.json schema.
	ChaosReport = faults.Report
	// RetryPolicy is the rpc client's bounded retry budget with seeded
	// exponential-backoff jitter.
	RetryPolicy = rpc.RetryPolicy
	// HedgePolicy races a delayed second request against stragglers.
	HedgePolicy = rpc.HedgePolicy
)

// NewHealthManager builds the failure detector over a front-end (or
// any router control plane); run it with Run and feed it passively via
// FrontEnd.SetObserver.
func NewHealthManager(cfg HealthConfig) (*HealthManager, error) { return health.NewManager(cfg) }

// GenerateFaultSchedule draws the deterministic chaos timeline for a
// seed — same inputs, bit-identical schedule and digest.
func GenerateFaultSchedule(rng *RNG, cfg FaultScheduleConfig) (*FaultSchedule, error) {
	return faults.Generate(rng, cfg)
}

// RunChaos executes a seeded fault schedule under live load through
// the full resilient stack and reports availability, detection and
// repair latency, and hedge win rate.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	return faults.Run(ctx, cfg)
}

// TeeTrace fans one request-log stream into several sinks.
func TeeTrace(sinks ...TraceSink) TraceSink { return trace.Tee(sinks...) }

// Geo distribution (DESIGN.md §11): N front-ends as named regions, a
// device-side nearest-region selector ranked by the netsim RTT models,
// and cross-region spillover + failover above the transport split.
type (
	// GeoRegion names one region: its front-end URL and its device→region
	// network path.
	GeoRegion = geo.Region
	// GeoClient is the device-side geo router.
	GeoClient = geo.Client
	// GeoOption configures a GeoClient.
	GeoOption = geo.Option
	// GeoDecision is one call's routing outcome (region, spill/failover
	// classification, attempts, charged RTT).
	GeoDecision = geo.Decision
	// NetPath is a device→region path: an RTT model plus a propagation
	// term; its mean ranks the region preference order.
	NetPath = netsim.Path
	// RegionMonitor heartbeats regional front-ends and fences dead
	// regions out of the preference order.
	RegionMonitor = health.RegionMonitor
	// RegionMonitorConfig parameterizes a RegionMonitor.
	RegionMonitorConfig = health.RegionMonitorConfig
)

// NewGeoClient builds the device-side geo router over named regions;
// the preference order is RTT-ranked, nearest first.
func NewGeoClient(regions []GeoRegion, opts ...GeoOption) (*GeoClient, error) {
	return geo.New(regions, opts...)
}

// PathTo builds a device→region path from an operator's model for one
// technology plus a propagation distance.
func PathTo(op NetOperator, tech NetTech, propagationMs float64) (NetPath, error) {
	return netsim.PathTo(op, tech, propagationMs)
}
