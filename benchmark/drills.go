package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/obs"
	"accelcloud/internal/router"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/serve"
	"accelcloud/internal/tasks"
	"accelcloud/internal/trace"
	"accelcloud/internal/wire"
)

// The layer drills time each layer's public functions from outside, at
// fixed iteration counts, so a traced run says which layer a change to
// an end-to-end number came from. Each drill reports the best of
// drillBatches batches: the least disturbed one.
const (
	drillBatches = 5
	faninCallers = 64
)

// sink keeps the compiler from discarding a drilled call's result.
var sink atomic.Int64

// drill runs iters calls of op in each batch and returns the best
// batch's time per call in ns and the fewest heap allocations per call.
func drill(iters int, op func(i int)) (nsPerOp, allocsPerOp float64) {
	return drillPar(1, iters, func(_, i int) { op(i) })
}

// drillPar splits iters calls over callers goroutines; time per call is
// wall time over all calls, so it reads as the layer's throughput cost.
func drillPar(callers, iters int, op func(caller, i int)) (nsPerOp, allocsPerOp float64) {
	nsPerOp, allocsPerOp = -1, -1
	var m0, m1 runtime.MemStats
	for b := 0; b < drillBatches; b++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if callers == 1 {
			for i := 0; i < iters; i++ {
				op(0, i)
			}
		} else {
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < iters; i += callers {
						op(c, i)
					}
				}()
			}
			wg.Wait()
		}
		ns := float64(time.Since(start)) / float64(iters)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(iters)
		if nsPerOp < 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if allocsPerOp < 0 || allocs < allocsPerOp {
			allocsPerOp = allocs
		}
	}
	return nsPerOp, allocsPerOp
}

// noopExec is the downstream of the serve drill: the queue's own cost
// with nothing behind it.
type noopExec struct{}

func (noopExec) Execute(context.Context, rpc.ExecuteRequest) (rpc.ExecuteResponse, error) {
	return rpc.ExecuteResponse{}, nil
}

func (noopExec) ExecuteBatch(_ context.Context, reqs []rpc.ExecuteRequest) ([]rpc.ExecuteResponse, error) {
	return make([]rpc.ExecuteResponse, len(reqs)), nil
}

// runDrills fills m with every drill metric.
func runDrills(m map[string]float64, seed int64) error {
	ctx := context.Background()
	pool := tasks.DefaultPool()
	r := rand.New(rand.NewSource(seed))
	small, err := tasks.Fibonacci{}.Generate(r, 1)
	if err != nil {
		return err
	}
	// The payload-size axis: a 48×48 matmul state is ≈91 KB of JSON.
	large, err := tasks.MatMul{}.Generate(r, 48)
	if err != nil {
		return err
	}
	smallRes, err := pool.Execute(small)
	if err != nil {
		return err
	}

	// router: Pick+Release over the cluster's 2×2 shape. Registering
	// dials nothing, so the addresses need not exist.
	rt := router.New(nil)
	for g := 1; g <= clusterGroups; g++ {
		for i := 0; i < surrogatesPerGroup; i++ {
			if err := rt.Register(g, fmt.Sprintf("bin://127.0.0.1:%d", 1000+g*10+i)); err != nil {
				return err
			}
		}
	}
	m["router.pick_release_ns"], m["router.pick_release_allocs"] = drill(400000, func(i int) {
		p, err := rt.Pick(1 + i%clusterGroups)
		if err != nil {
			panic(err) // a registered group always has an active backend
		}
		rt.Release(p, true)
	})

	// serve: SubmitTimed over a no-op executor, alone and at fan-in.
	execReq := rpc.ExecuteRequest{State: small}
	q, err := serve.New(serve.Config{Limit: queueLimit, Depth: queueDepth}, noopExec{})
	if err != nil {
		return err
	}
	m["serve.submit_ns"], m["serve.submit_allocs"] = drill(60000, func(int) {
		if _, _, err := q.SubmitTimed(ctx, execReq); err != nil {
			panic(err) // one caller cannot fill a 256-deep queue
		}
	})
	q.Close()
	qb, err := serve.New(serve.Config{Limit: queueLimit, Depth: queueDepth, MaxBatch: maxBatch, Linger: batchLinger}, noopExec{})
	if err != nil {
		return err
	}
	m["serve.submit_fanin_ns"], _ = drillPar(faninCallers, 64000, func(int, int) {
		if _, _, err := qb.SubmitTimed(ctx, execReq); err != nil {
			panic(err) // 64 callers cannot fill a 256-deep queue
		}
	})
	if b := qb.Batches(); b > 0 {
		m["serve.batch_occupancy"] = float64(qb.Coalesced()) / float64(b)
	}
	qb.Close()

	// wire codec, on the messages small_bin exchanges.
	offReq := rpc.OffloadRequest{UserID: 7, Group: 1, BatteryLevel: 0.5, State: small}
	offResp := rpc.OffloadResponse{Result: smallRes, Server: "surrogate-g1-0", Group: 1,
		Timings: rpc.Timings{RoutingMs: 0.01, BackendMs: 0.02, CloudMs: 0.001}}
	var buf []byte
	m["wire.enc_req_ns"], _ = drill(400000, func(int) { buf = wire.AppendOffloadRequest(buf[:0], offReq) })
	encReq := wire.AppendOffloadRequest(nil, offReq)
	m["wire.dec_req_ns"], m["wire.dec_req_allocs"] = drill(200000, func(int) {
		v, err := wire.DecodeOffloadRequest(encReq)
		if err != nil {
			panic(err) // decoding what the codec just encoded
		}
		sink.Add(int64(v.Group))
	})
	m["wire.enc_resp_ns"], _ = drill(400000, func(int) { buf = wire.AppendOffloadResponse(buf[:0], offResp) })
	encResp := wire.AppendOffloadResponse(nil, offResp)
	m["wire.dec_resp_ns"], m["wire.dec_resp_allocs"] = drill(200000, func(int) {
		v, err := wire.DecodeOffloadResponse(encResp)
		if err != nil {
			panic(err)
		}
		sink.Add(int64(v.Group))
	})
	m["wire.frame_ns"], m["wire.frame_allocs"] = drill(400000, func(i int) {
		buf = wire.AppendFrame(buf[:0], wire.Frame{Type: wire.FrameRequest, Flags: wire.MethodOffload, StreamID: uint64(i), Payload: encReq})
		f, _, err := wire.DecodeFrame(buf, 0)
		if err != nil {
			panic(err)
		}
		sink.Add(int64(f.StreamID))
	})
	largeReq := rpc.OffloadRequest{UserID: 7, Group: 1, BatteryLevel: 0.5, State: large}
	m["wire.enc_req_large_ns"], _ = drill(20000, func(int) { buf = wire.AppendOffloadRequest(buf[:0], largeReq) })
	encLarge := wire.AppendOffloadRequest(nil, largeReq)
	m["wire.dec_req_large_ns"], _ = drill(20000, func(int) {
		v, err := wire.DecodeOffloadRequest(encLarge)
		if err != nil {
			panic(err)
		}
		sink.Add(int64(v.Group))
	})

	// wire transport: ping round trips on one Conn against a Server.
	pingLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	pingSrv := &wire.Server{}
	go func() { _ = pingSrv.Serve(pingLis) }() // returns nil on Close
	defer func() { _ = pingSrv.Close() }()
	nc, err := net.Dial("tcp", pingLis.Addr().String())
	if err != nil {
		return err
	}
	conn := wire.NewConn(nc, 0)
	defer func() { _ = conn.Close() }()
	ping := func(int, int) {
		if _, err := conn.Call(ctx, wire.FrameRequest, wire.MethodPing, nil); err != nil {
			panic(err) // loopback peer in this process
		}
	}
	ns, allocs := drillPar(1, 4000, ping)
	m["wire.call_us"], m["wire.call_allocs"] = ns/1000, allocs
	ns, _ = drillPar(faninCallers, 32000, ping)
	m["wire.call_fanin_us"] = ns / 1000

	// rpc: Client.Execute to one surrogate over each transport.
	sur, err := dalvik.NewSurrogate("drill", 0)
	if err != nil {
		return err
	}
	if err := sur.PushPool(pool); err != nil {
		return err
	}
	httpAddr, stopHTTP, err := serveHTTP(sur.Handler())
	if err != nil {
		return err
	}
	defer stopHTTP()
	binLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	binSrv, err := sur.ServeBinary(binLis)
	if err != nil {
		return err
	}
	defer func() { _ = binSrv.Close() }()
	binURL := rpc.BinaryScheme + binLis.Addr().String()
	execute := func(c *rpc.Client, st tasks.State) func(int) {
		return func(int) {
			resp, err := c.Execute(ctx, rpc.ExecuteRequest{State: st})
			if err != nil {
				panic(err) // loopback peer in this process
			}
			sink.Add(resp.Result.Ops)
		}
	}
	jsonClient := rpc.NewClient("http://" + httpAddr)
	ns, allocs = drill(2500, execute(jsonClient, small))
	m["rpc.hop_json_us"], m["rpc.hop_json_allocs"] = ns/1000, allocs
	ns, _ = drill(100, execute(jsonClient, large))
	m["rpc.hop_json_large_us"] = ns / 1000
	ns, allocs = drill(5000, execute(rpc.NewClient(binURL), small))
	m["rpc.hop_bin_us"], m["rpc.hop_bin_allocs"] = ns/1000, allocs

	// sdn: FrontEnd.Offload called in process, no front hop, the option
	// set the workloads run with.
	store := trace.NewStore()
	async, err := trace.NewAsync(store, 0, 0)
	if err != nil {
		return err
	}
	defer func() { _ = async.Close() }()
	fe, err := sdn.New(sdn.WithTrace(async), sdn.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return err
	}
	if err := fe.Register(1, binURL); err != nil {
		return err
	}
	const offloads = 5000
	offload := func(req rpc.OffloadRequest) {
		resp, code := fe.Offload(ctx, req)
		if code != http.StatusOK {
			panic(resp.Error) // loopback surrogate in this process
		}
		sink.Add(resp.Result.Ops)
	}
	ns, allocs = drill(offloads, func(int) { offload(offReq) })
	m["sdn.offload_inproc_us"], m["sdn.offload_inproc_allocs"] = ns/1000, allocs
	// Every call a fresh key, as a retrying client stamps them: the
	// idempotency cache inserts and, past its cap, evicts on each call.
	keys := make([]string, offloads*drillBatches)
	for i := range keys {
		keys[i] = fmt.Sprintf("drill-%x", i)
	}
	batch := 0
	ns, _ = drill(offloads, func(i int) {
		if i == 0 {
			batch++
		}
		req := offReq
		req.IdemKey = keys[(batch-1)*offloads+i]
		offload(req)
	})
	m["sdn.offload_keyed_us"] = ns / 1000

	// dalvik and tasks: execution with no protocol around it.
	ns, _ = drill(100000, func(int) {
		res, _, err := sur.Execute(small)
		if err != nil {
			panic(err)
		}
		sink.Add(res.Ops)
	})
	m["dalvik.execute_us"] = ns / 1000
	w, _ := workloadByName("compute_open")
	inputs, err := genInputs(r, true, w.window/5)
	if err != nil {
		return err
	}
	ns, _ = drill(len(inputs), func(i int) {
		res, err := pool.Execute(inputs[i].req.State)
		if err != nil {
			panic(err)
		}
		sink.Add(res.Ops)
	})
	m["tasks.exec_us"] = ns / 1000

	// trace and obs: what every offload appends and observes.
	rec := trace.Record{Timestamp: time.Now(), UserID: 7, Group: 1, BatteryLevel: 0.5, RTT: time.Millisecond}
	// A batch stays below the sink's buffer and starts from an empty one,
	// so it times the enqueue path, not the shed-when-full path.
	m["trace.append_ns"], m["trace.append_allocs"] = drill(trace.DefaultAsyncBuffer/2, func(i int) {
		if i == 0 {
			async.Flush()
		}
		if err := async.Append(rec); err != nil {
			panic(err) // a valid record on an open sink
		}
	})
	hist := obs.NewRegistry().Histogram("drill_latency_ms", "drill")
	m["obs.observe_ns"], _ = drill(1000000, func(i int) { hist.Observe(float64(i%1000) / 100) })
	m["obs.observe_par_ns"], _ = drillPar(runtime.NumCPU(), 1000000, func(_, i int) { hist.Observe(float64(i%1000) / 100) })
	return nil
}
