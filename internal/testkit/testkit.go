// Package testkit holds the few helpers the concurrency tests of
// several packages share: a goroutine-leak assertion and the race
// detector's build flag.
package testkit

import (
	"runtime"
	"testing"
	"time"
)

// NoLeak fails t if, after the test's other cleanups have run, the
// goroutine count does not come back down to what it was when NoLeak
// was called. Call it first in the test: cleanups run last-in
// first-out, so the check then runs after every Close the test
// registered. Goroutines wind down asynchronously (a read loop exits
// once its closed connection fails the read), so the count is polled
// until a deadline rather than read once.
func NoLeak(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d before the test, %d after its cleanups\n%s",
					before, runtime.NumGoroutine(), buf)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
