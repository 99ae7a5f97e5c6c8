package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// DefaultTimeout is the per-request deadline a Client applies when its
// Timeout field is zero. It replaces the historical transport-level
// http.Client.Timeout: deadlines now travel through context, so callers
// holding a tighter deadline always win and callers holding none are
// still protected.
const DefaultTimeout = 30 * time.Second

// StatusError is a non-200 HTTP response, preserved as a typed error so
// the retry budget can distinguish server faults (5xx, retryable — the
// backend may be crashed or ejected mid-flight) from client mistakes
// (4xx, never retried).
type StatusError struct {
	Code int
	Body string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Code, e.Body)
}

// RetryPolicy is a bounded retry budget with exponential backoff and
// seeded jitter. The zero value retries nothing; NewRetryPolicy builds
// a jittered policy whose backoff draws are reproducible for a seed.
// A RetryPolicy is safe for concurrent use by many requests.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first
	// (values < 2 disable retries).
	MaxAttempts int
	// BaseBackoff is the pre-jitter wait before the first retry; it
	// doubles per attempt (0 selects 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 selects 1s).
	MaxBackoff time.Duration

	// mu guards rnd: backoff draws are cheap and happen only on the
	// (already slow) retry path, never on first-attempt success.
	mu  sync.Mutex
	rnd *rand.Rand
}

// NewRetryPolicy builds a retry budget whose jitter stream is seeded —
// chaos runs derive the seed from sim.RNG substreams so backoff
// sequences are reproducible run to run.
func NewRetryPolicy(maxAttempts int, base, max time.Duration, seed int64) *RetryPolicy {
	//nolint:gosec // deterministic jitter, not cryptography.
	return &RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseBackoff: base,
		MaxBackoff:  max,
		rnd:         rand.New(rand.NewSource(seed)),
	}
}

// backoff computes the jittered wait before retry number n (0-based):
// an exponentially grown, capped base, spread over [1/2, 1) of itself
// so concurrent retriers decorrelate instead of thundering back in
// lockstep.
func (p *RetryPolicy) backoff(n int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = time.Second
	}
	d := base << uint(n)
	if d <= 0 || d > cap { // <= 0 catches shift overflow
		d = cap
	}
	if p.rnd == nil {
		return d
	}
	p.mu.Lock()
	f := p.rnd.Float64()
	p.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// HedgePolicy launches a second identical request when the first has
// not resolved within Delay, racing the two and keeping whichever
// finishes first — the tail-tolerance half of the retry budget: retries
// cover failures, hedges cover stragglers (hung or latency-spiked
// backends that have not failed yet).
type HedgePolicy struct {
	// Delay is how long the primary request runs alone. Values <= 0
	// disable hedging.
	Delay time.Duration
}

// ClientStats are the client's resilience counters.
type ClientStats struct {
	// Retries counts re-sent attempts (excluding each call's first).
	Retries int64
	// Hedges counts hedged second requests actually launched.
	Hedges int64
	// HedgeWins counts hedges that resolved before their primary.
	HedgeWins int64
}

// retryable reports whether an attempt error is worth another attempt:
// transport failures and 5xx responses are (the backend may be dead and
// the next pick routed elsewhere); 4xx responses and exhausted contexts
// are not.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// IsQueueFull reports whether an error is admission-queue
// backpressure: a 503 whose body carries the MsgQueueFull marker (the
// front-end's rendering of serve.ErrQueueFull), or an in-process
// error wrapping the ErrQueueFull sentinel. Queue-full rejections
// mean "this backend is busy, others may not be", so the retry path
// re-routes after a token wait instead of the full crash-backoff.
// Classification is structural (typed status + sentinel), never
// free-text over arbitrary error strings, so unrelated errors that
// happen to mention the marker cannot ride the fast-retry path.
func IsQueueFull(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusServiceUnavailable && strings.Contains(se.Body, MsgQueueFull)
	}
	return errors.Is(err, ErrQueueFull)
}

// IsUnavailable reports whether an error means the target front-end
// cannot serve the call at all right now: transport-level failures
// (connection refused or reset, dial and hop timeouts — the signature
// of a crashed or chaos-killed region) and 5xx responses. The geo
// failover path treats these as "this region is gone, try the next
// one in the preference order"; 4xx responses and a caller-cancelled
// context are the device's own problem and never re-route. Queue-full
// backpressure is also unavailable in this sense — IsQueueFull
// distinguishes spillover from failover when the caller cares which.
func IsUnavailable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// queueFullBackoff is the short wait before retrying a queue-full
// rejection: long enough to let a dispatcher drain one slot, short
// enough that the retry lands while the re-route window is open.
const queueFullBackoff = time.Millisecond

// sleep waits d, or until ctx ends or the call's deadline passes, and
// reports whether the full wait elapsed with time to spare — false
// means the call is out of time.
func sleep(ctx context.Context, deadline time.Time, d time.Duration) bool {
	inTime := true
	if left := time.Until(deadline); left <= d {
		d, inTime = left, false
	}
	if d > 0 {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
		}
	}
	return inTime
}

// attempts runs post under the client's retry budget; deadline bounds
// the whole chain.
func attempts[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], deadline time.Time, in Req) (Resp, error) {
	p := c.Retry
	budget := 1
	if p != nil && p.MaxAttempts > 1 {
		budget = p.MaxAttempts
	}
	var out Resp
	var err error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			wait := p.backoff(attempt - 1)
			if IsQueueFull(err) {
				// Backpressure, not a crash: the next attempt re-picks
				// and lands on a non-saturated backend, so waiting the
				// full exponential backoff wastes the re-route window.
				wait = queueFullBackoff
			}
			if !sleep(ctx, deadline, wait) {
				return out, err
			}
			// Counted only once the backoff survives the context: a
			// call cancelled mid-wait never re-sent anything.
			c.retries.Add(1)
		}
		out, err = post(ctx, c, m, deadline, in)
		if err == nil {
			return out, nil
		}
		if !retryable(err) || ctx.Err() != nil {
			return out, err
		}
	}
	return out, err
}

// call is the resilient entry point every client method funnels
// through: it bounds the whole call (retries and hedges included) with
// the configured deadline, then runs the retry budget — hedged with a
// delayed second lane when a HedgePolicy is set. The deadline is
// computed once and handed down as a value. The framed transport
// derives no context from it: the wire wait runs a pooled timer next to
// the caller's own ctx. The JSON transport needs the deadline inside
// the context net/http watches, so there ctx carries it as well.
func call[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], in Req) (Resp, error) {
	deadline := time.Now().Add(c.timeout())
	if !c.binary() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if c.Hedge != nil && c.Hedge.Delay > 0 {
		return hedged(ctx, c, m, deadline, in)
	}
	return attempts(ctx, c, m, deadline, in)
}

// hedged races a primary attempt chain against a second one launched
// after the hedge delay. Each lane returns its own value, so the lanes
// share nothing; the winner's is returned. The loser is cancelled and
// joined before hedged returns, so no lane outlives the call: a caller
// may reuse in (and the bytes it points to) as soon as the call is
// over.
func hedged[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], deadline time.Time, in Req) (Resp, error) {
	lctx, lcancel := context.WithCancel(ctx)
	defer lcancel()
	type lane struct {
		out   Resp
		err   error
		hedge bool
	}
	results := make(chan lane, 2)
	run := func(hedge bool) {
		out, err := attempts(lctx, c, m, deadline, in)
		results <- lane{out: out, err: err, hedge: hedge}
	}
	go run(false)
	timer := time.NewTimer(c.Hedge.Delay)
	defer timer.Stop()

	launched, finished := 1, 0
	primaryResolved := false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				c.hedges.Add(1)
				go run(true)
			}
		case l := <-results:
			finished++
			if !l.hedge {
				primaryResolved = true
			}
			if l.err == nil {
				// A win is the hedge beating a still-outstanding
				// primary — succeeding after the primary already failed
				// is retry-style recovery, not a tail-latency win.
				if l.hedge && !primaryResolved {
					c.hedgeWins.Add(1)
				}
				// Cancel the losing lane, if one is still running, and
				// wait for it: a cancelled attempt returns promptly.
				lcancel()
				for ; finished < launched; finished++ {
					<-results
				}
				return l.out, nil
			}
			if firstErr == nil {
				firstErr = l.err
			}
			if finished == launched {
				// Either every launched lane failed, or the primary
				// failed before the hedge delay fired — its retries
				// already consumed the budget, so a hedge would only
				// repeat the same failure.
				var zero Resp
				return zero, firstErr
			}
		}
	}
}
