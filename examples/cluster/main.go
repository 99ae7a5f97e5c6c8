// Cluster: the real-socket deployment. Two Dalvik-x86-like surrogate
// servers (acceleration groups 1 and 2) and the SDN-accelerator front-end
// run on localhost HTTP; a set of simulated mobile clients offloads pool
// tasks through the front-end, then the example prints the per-group
// timing decomposition (Fig 7a over real sockets).
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"accelcloud"
)

func main() {
	if _, err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

// serve starts an HTTP server on an ephemeral localhost port and returns
// its base URL and a shutdown func.
func serve(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// run boots the cluster, drives the offloads and returns how many trace
// records the front-end logged.
func run() (int, error) {
	pool := accelcloud.DefaultTaskPool()

	// Back-ends: one surrogate per acceleration group.
	store := accelcloud.NewTraceStore()
	fe, err := accelcloud.NewSDNFrontEnd(accelcloud.WithTrace(store))
	if err != nil {
		return 0, err
	}
	for group := 1; group <= 2; group++ {
		sur, err := accelcloud.NewSurrogate(fmt.Sprintf("surrogate-g%d", group), 32)
		if err != nil {
			return 0, err
		}
		for _, name := range pool.Names() {
			task, err := pool.ByName(name)
			if err != nil {
				return 0, err
			}
			if err := sur.Push(task); err != nil {
				return 0, err
			}
		}
		url, stop, err := serve(sur.Handler())
		if err != nil {
			return 0, err
		}
		defer stop()
		if err := fe.Register(group, url); err != nil {
			return 0, err
		}
		fmt.Printf("surrogate group %d: %s (%d bundles installed)\n",
			group, url, len(sur.Installed()))
	}

	frontURL, stopFront, err := serve(fe.Handler())
	if err != nil {
		return 0, err
	}
	defer stopFront()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := accelcloud.WaitHealthy(ctx, frontURL); err != nil {
		return 0, err
	}
	fmt.Printf("sdn front-end     : %s\n\n", frontURL)

	// Clients: 12 devices, half asking group 1, half group 2, each
	// offloading 5 random pool tasks concurrently.
	client := accelcloud.NewRPCClient(frontURL)
	rng := accelcloud.NewRNG(99)
	type obs struct {
		group   int
		cloudMs float64
		t2Ms    float64
		totalMs float64
	}
	var mu sync.Mutex
	var observations []obs
	var wg sync.WaitGroup
	for dev := 0; dev < 12; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			devRng := rng.StreamN("client", dev)
			group := 1 + dev%2
			for i := 0; i < 5; i++ {
				task := pool.Random(devRng)
				st, err := task.Generate(devRng, 16)
				if err != nil {
					continue
				}
				start := time.Now()
				resp, err := client.Offload(ctx, accelcloud.OffloadRequest{
					UserID: dev, Group: group, BatteryLevel: 1, State: st,
				})
				if err != nil {
					continue
				}
				mu.Lock()
				observations = append(observations, obs{
					group:   group,
					cloudMs: resp.Timings.CloudMs,
					t2Ms:    resp.Timings.BackendMs,
					totalMs: float64(time.Since(start)) / float64(time.Millisecond),
				})
				mu.Unlock()
			}
		}(dev)
	}
	wg.Wait()

	perGroup := map[int][]obs{}
	for _, o := range observations {
		perGroup[o.group] = append(perGroup[o.group], o)
	}
	fmt.Println("group  requests  mean_total_ms  mean_T2_ms  mean_Tcloud_ms")
	for g := 1; g <= 2; g++ {
		os := perGroup[g]
		if len(os) == 0 {
			continue
		}
		var total, t2, cloud float64
		for _, o := range os {
			total += o.totalMs
			t2 += o.t2Ms
			cloud += o.cloudMs
		}
		n := float64(len(os))
		fmt.Printf("%d      %-8d  %-13.1f  %-10.2f  %.2f\n",
			g, len(os), total/n, t2/n, cloud/n)
	}
	fmt.Printf("\ntrace records logged by the front-end: %d\n", store.Len())
	return store.Len(), nil
}
