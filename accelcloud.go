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
// per-group workload from the request log (EditDistanceNN) and provisions the
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
	"accelcloud/internal/groups"
	"accelcloud/internal/loadgen"
	"accelcloud/internal/netsim"
	"accelcloud/internal/predict"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/sim"
	"accelcloud/internal/stats"
	"accelcloud/internal/tasks"
	"accelcloud/internal/trace"
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
)

// NewSystem builds a System; see core.New.
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// Cloud substrate (§VI-A).
type (
	// InstanceType is one purchasable server type.
	InstanceType = cloud.InstanceType
	// Catalog indexes instance types.
	Catalog = cloud.Catalog
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

// TaskPool is the registry of offloadable tasks (§V).
type TaskPool = tasks.Pool

// DefaultTaskPool returns the paper's 10-task pool.
func DefaultTaskPool() *TaskPool { return tasks.DefaultPool() }

// Workload generation (§V, §VI-C1).
type (
	// WorkloadRequest is one offloading event.
	WorkloadRequest = workload.Request
	// InterArrivalConfig parameterizes the realistic workload mode.
	InterArrivalConfig = workload.InterArrivalConfig
	// Sizer draws task sizes.
	Sizer = workload.Sizer
	// FixedSizer always draws one size (static-load experiments).
	FixedSizer = workload.FixedSizer
	// UniformDist is the continuous uniform distribution.
	UniformDist = stats.Uniform
)

// DefaultSizer balances the ten pool tasks (see workload.DefaultSizer).
func DefaultSizer() Sizer { return workload.DefaultSizer() }

// GenerateInterArrival builds a realistic request stream.
func GenerateInterArrival(r *rand.Rand, start time.Time, cfg InterArrivalConfig) ([]WorkloadRequest, error) {
	return workload.GenerateInterArrival(r, start, cfg)
}

// RNG derives named deterministic random streams from a root seed.
type RNG = sim.RNG

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
)

// NewSurrogate creates an execution server; push tasks before serving.
func NewSurrogate(name string, maxProcs int) (*Surrogate, error) {
	return dalvik.NewSurrogate(name, maxProcs)
}

// RPCClientOption configures NewRPCClient.
type RPCClientOption = rpc.ClientOption

// NewRPCClient builds a client for a front-end or surrogate base URL.
func NewRPCClient(baseURL string, opts ...RPCClientOption) *RPCClient {
	return rpc.NewClient(baseURL, opts...)
}

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
	// FastResponsePolicy demotes after consecutive fast responses.
	FastResponsePolicy = device.FastResponse
)

// NewDevice creates a fully charged handset in the given group.
func NewDevice(id int, p DeviceProfile, startGroup int) (*Device, error) {
	return device.New(id, p, startGroup)
}

// ProfileByName finds a device profile in a set.
func ProfileByName(profiles []DeviceProfile, name string) (DeviceProfile, error) {
	return device.ProfileByName(profiles, name)
}

// NetOperator is one cellular carrier's latency model (§VI-C4).
type NetOperator = netsim.Operator

// Cellular technologies an operator's RTT models are keyed by.
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
	// FrontEndOption configures NewSDNFrontEnd.
	FrontEndOption = sdn.Option
	// TraceSink receives request records (a TraceStore, for one).
	TraceSink = trace.Sink
)

// NewSDNFrontEnd builds an HTTP front-end from functional options.
// Zero options give a round-robin router with no trace sink.
func NewSDNFrontEnd(opts ...FrontEndOption) (*FrontEnd, error) {
	return sdn.New(opts...)
}

// WithTrace installs the front-end's request trace sink (nil disables
// logging).
var WithTrace = sdn.WithTrace

// Autoscaling control loop (DESIGN.md §5): the live
// predict→allocate→provision cycle reconciling the SDN front-end's
// per-group surrogate pools against predicted demand.
type (
	// AutoscaleGroupSpec binds a managed group to its economics.
	AutoscaleGroupSpec = autoscale.GroupSpec
	// AutoscaleSweepConfig parameterizes the hermetic end-to-end run.
	AutoscaleSweepConfig = autoscale.SweepConfig
	// AutoscaleReport is the BENCH_autoscale.json schema.
	AutoscaleReport = autoscale.Report
	// LoadgenSLO is a service-level objective checked into the report.
	LoadgenSLO = loadgen.SLO
)

// RunAutoscaleSweep executes the hermetic doubling-rate scenario: a
// live stack scales per-group pools up through the ramp and back down
// through the drain slots, bit-reproducibly per seed.
func RunAutoscaleSweep(ctx context.Context, cfg AutoscaleSweepConfig) (*AutoscaleReport, error) {
	return autoscale.RunSweep(ctx, cfg)
}
