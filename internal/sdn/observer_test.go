package sdn

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
)

// hop is one observer call; errText is "" for a successful hop.
type hop struct {
	group   int
	url     string
	errText string
}

// hopRecorder is an Observer that keeps every call.
type hopRecorder struct {
	mu   sync.Mutex
	hops []hop
}

func (r *hopRecorder) observe(group int, url string, err error, _ float64) {
	h := hop{group: group, url: url}
	if err != nil {
		h.errText = err.Error()
	}
	r.mu.Lock()
	r.hops = append(r.hops, h)
	r.mu.Unlock()
}

func (r *hopRecorder) calls() []hop {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]hop(nil), r.hops...)
}

// TestObserverContract pins what the failure detector's passive feed
// sees: exactly one call per backend hop, successful or failed, and
// none for requests that never reached a backend.
func TestObserverContract(t *testing.T) {
	sur, err := dalvik.NewSurrogate("surrogate-obs", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sur.PushPool(tasks.DefaultPool()); err != nil {
		t.Fatal(err)
	}
	st, err := tasks.Fibonacci{}.Generate(sim.NewRNG(7).Stream("gen"), 10)
	if err != nil {
		t.Fatal(err)
	}
	req := rpc.OffloadRequest{UserID: 1, Group: 1, BatteryLevel: 1, State: st}
	// The queue-full row's gated backend reports each execute on
	// entered and holds it until release closes.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	offload := func(t *testing.T, fe *FrontEnd, ctx context.Context, want int) rpc.OffloadResponse {
		t.Helper()
		resp, code := fe.Offload(ctx, req)
		if code != want {
			t.Fatalf("offload code %d, want %d: %+v", code, want, resp)
		}
		return resp
	}

	cases := []struct {
		name string
		// backend serves the group's only backend; nil selects the
		// surrogate.
		backend func(t *testing.T) http.Handler
		opts    []Option
		// viaRef observes through an ObserverRef that drive binds
		// (bind(true)) and unbinds (bind(false)) itself.
		viaRef bool
		// drive runs the requests and returns the observer calls they
		// must produce.
		drive func(t *testing.T, fe *FrontEnd, url string, bind func(bool)) []hop
	}{
		{
			name: "success",
			drive: func(t *testing.T, fe *FrontEnd, url string, _ func(bool)) []hop {
				offload(t, fe, context.Background(), http.StatusOK)
				offload(t, fe, context.Background(), http.StatusOK)
				return []hop{{1, url, ""}, {1, url, ""}}
			},
		},
		{
			name: "backend error is a 502",
			backend: func(*testing.T) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
					http.Error(w, "surrogate on fire", http.StatusInternalServerError)
				})
			},
			drive: func(t *testing.T, fe *FrontEnd, url string, _ func(bool)) []hop {
				resp := offload(t, fe, context.Background(), http.StatusBadGateway)
				if resp.Error == "" {
					t.Fatal("502 carries no error")
				}
				return []hop{{1, url, resp.Error}}
			},
		},
		{
			name: "queue-full rejection",
			backend: func(*testing.T) http.Handler {
				next := sur.Handler()
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == rpc.PathExecute {
						select {
						case entered <- struct{}{}:
						default:
						}
						<-release
					}
					next.ServeHTTP(w, r)
				})
			},
			opts: []Option{WithQueue(1, 1)},
			drive: func(t *testing.T, fe *FrontEnd, url string, _ func(bool)) []hop {
				// Unblock the backend on every exit, so its Close in
				// cleanup cannot hang on a held handler.
				defer open()
				// One call dispatched and held at the backend, one
				// waiting behind it: the queue is full.
				var wg sync.WaitGroup
				admit := func() {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if resp, code := fe.Offload(context.Background(), req); code != http.StatusOK {
							t.Errorf("admitted call: code %d: %+v", code, resp)
						}
					}()
				}
				admit()
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatal("first call never reached the backend")
				}
				admit()
				deadline := time.Now().Add(10 * time.Second)
				for fe.Pool(1)[0].Queued < 1 {
					if time.Now().After(deadline) {
						t.Fatalf("queue never filled: %+v", fe.Pool(1))
					}
					time.Sleep(time.Millisecond)
				}
				resp := offload(t, fe, context.Background(), http.StatusServiceUnavailable)
				if !strings.Contains(resp.Error, rpc.MsgQueueFull) {
					t.Fatalf("503 is not a queue-full rejection: %q", resp.Error)
				}
				// The two admitted calls complete once the backend
				// unblocks: one hop each, none for the rejection.
				open()
				wg.Wait()
				return []hop{{1, url, ""}, {1, url, ""}}
			},
		},
		{
			name: "client cancel during cold start",
			opts: []Option{WithColdPool(time.Millisecond, time.Minute)},
			drive: func(t *testing.T, fe *FrontEnd, _ string, _ func(bool)) []hop {
				if n := fe.SweepCold(time.Now().Add(time.Hour)); n != 1 {
					t.Fatalf("sweep parked %d backends, want 1", n)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				offload(t, fe, ctx, statusClientClosedRequest)
				return nil
			},
		},
		{
			name:   "observer ref binds and unbinds",
			viaRef: true,
			drive: func(t *testing.T, fe *FrontEnd, url string, bind func(bool)) []hop {
				offload(t, fe, context.Background(), http.StatusOK)
				bind(true)
				offload(t, fe, context.Background(), http.StatusOK)
				bind(false)
				offload(t, fe, context.Background(), http.StatusOK)
				return []hop{{1, url, ""}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sur.Handler()
			if tc.backend != nil {
				h = tc.backend(t)
			}
			backend := httptest.NewServer(h)
			t.Cleanup(backend.Close)

			var rec hopRecorder
			var ref ObserverRef
			var bind func(bool)
			opts := append([]Option(nil), tc.opts...)
			if tc.viaRef {
				opts = append(opts, WithObserver(ref.Observe))
				bind = func(on bool) {
					if on {
						ref.Set(rec.observe)
					} else {
						ref.Set(nil)
					}
				}
			} else {
				opts = append(opts, WithObserver(rec.observe))
			}
			fe, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := fe.Register(1, backend.URL); err != nil {
				t.Fatal(err)
			}

			want := tc.drive(t, fe, backend.URL, bind)
			got := rec.calls()
			sort.Slice(got, func(i, j int) bool { return got[i].errText < got[j].errText })
			if len(got) != len(want) {
				t.Fatalf("observer calls = %+v, want %+v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("observer call %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
