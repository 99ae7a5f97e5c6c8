// Package rpc defines the offloading wire protocol between mobile
// clients, the SDN-accelerator front-end, and surrogate back-ends: JSON
// over HTTP, carrying the serialized application state of the homogeneous
// offloading model (Fig 1a) plus the timing breakdown of Fig 7a
// (T1 mobile↔front-end, T2 front-end↔back-end, Tcloud execution).
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/wire"
)

// Paths of the HTTP endpoints.
const (
	// PathOffload is the front-end entry point for mobile clients.
	PathOffload = "/offload"
	// PathOffloadBatch executes a chain of offload calls in one round
	// trip (the JSON compat form of a binary batch frame).
	PathOffloadBatch = "/offload/batch"
	// PathExecute is the surrogate's execution endpoint.
	PathExecute = "/execute"
	// PathExecuteBatch executes a batch of homogeneous states in one
	// round trip — the surrogate-side hop the serving layer's dynamic
	// batcher dispatches through.
	PathExecuteBatch = "/execute/batch"
	// PathHealth reports liveness.
	PathHealth = "/healthz"
	// PathStats reports counters.
	PathStats = "/stats"
)

// MsgQueueFull is the wire-visible marker of admission-queue
// backpressure. serve.ErrQueueFull embeds it, the front-end's 503
// body carries it, and IsQueueFull recognizes it client-side so the
// retry budget can re-route immediately instead of backing off as if
// the backend had crashed.
const MsgQueueFull = "admission queue full"

// ErrQueueFull is the in-process sentinel behind the marker:
// serve.ErrQueueFull wraps it, so IsQueueFull classifies local
// rejections with errors.Is instead of free-text matching.
var ErrQueueFull = errors.New(MsgQueueFull)

// BinaryScheme prefixes a BaseURL that selects the binary framed
// transport ("bin://host:port") instead of HTTP/JSON. Everything else
// about the Client — Timeout, Retry, Hedge, the resilience counters —
// composes identically over both transports.
const BinaryScheme = "bin://"

// maxBodyBytes bounds JSON bodies in both directions (application
// states are small; the homogeneous model ships method parameters, not
// bulk data).
const maxBodyBytes = 8 << 20

// errBodyTooLarge rejects a JSON body over maxBodyBytes outright; cut
// short instead, it would surface as a syntax error about its prefix.
var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBodyBytes)

// The protocol DTOs live in internal/wire so the binary framing and
// the JSON compat mode share one set of structs; the historical rpc
// names remain as aliases.
type (
	// OffloadRequest is a mobile client's request to the front-end.
	OffloadRequest = wire.OffloadRequest
	// OffloadResponse is the front-end's reply.
	OffloadResponse = wire.OffloadResponse
	// Timings is the Fig 7a component breakdown, in milliseconds.
	Timings = wire.Timings
	// ExecuteRequest is the front-end → surrogate call.
	ExecuteRequest = wire.ExecuteRequest
	// ExecuteResponse is the surrogate's reply.
	ExecuteResponse = wire.ExecuteResponse
	// BatchRequest is a chain of offload calls executed in one round trip.
	BatchRequest = wire.BatchRequest
	// BatchResponse answers a BatchRequest, one result per call.
	BatchResponse = wire.BatchResponse
	// BatchResult is one call's outcome (HTTP-equivalent code + response).
	BatchResult = wire.BatchResult
	// ExecuteBatchRequest is a batch of homogeneous surrogate calls.
	ExecuteBatchRequest = wire.ExecuteBatchRequest
	// ExecuteBatchResponse answers an ExecuteBatchRequest in call order.
	ExecuteBatchResponse = wire.ExecuteBatchResponse
)

// encodeBufPool recycles the JSON mode's staging buffers across
// requests: encoder output (WriteJSON, postJSON) and inbound bodies
// (decodeBody). The front-end marshals and reads twice per proxied
// request (the surrogate hop and the client edge); at load-generator
// concurrency the per-call allocations were a measurable share of the
// routing layer's GC pressure.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufBytes caps what is returned to the pool so one huge
// application state doesn't pin its buffer forever.
const maxPooledBufBytes = 1 << 20

// Pool accounting: every Get must eventually be matched by a Put (or a
// deliberate over-cap Discard), error paths included — a buffer that
// misses its return leaks under sustained 5xx bursts, where every
// request takes an error path. The counters make the invariant
// testable (see TestEncodeBufPoolBalanced); they are monotonic, so
// balance is gets == puts + discards at quiescence.
var (
	poolGets     atomic.Int64
	poolPuts     atomic.Int64
	poolDiscards atomic.Int64
)

// PoolCounters snapshots the encode-buffer pool accounting
// (gets, puts, discards) — the observability hook behind the
// buffer-leak regression test.
func PoolCounters() (gets, puts, discards int64) {
	return poolGets.Load(), poolPuts.Load(), poolDiscards.Load()
}

func getEncodeBuf() *bytes.Buffer {
	poolGets.Add(1)
	return encodeBufPool.Get().(*bytes.Buffer)
}

func putEncodeBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBufBytes {
		poolDiscards.Add(1)
		return
	}
	b.Reset()
	encodeBufPool.Put(b)
	poolPuts.Add(1)
}

// WriteJSON writes v with the given status code. The body is staged in
// a pooled buffer so the response carries a Content-Length and the
// encoder's scratch space is reused across requests.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Unencodable payloads are a programming error; the empty-body
		// status line is the only thing left to send.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	// Write failures after the header is sent can only be logged by
	// the caller's middleware; the connection is already committed.
	_, _ = w.Write(buf.Bytes())
}

// ReadJSON decodes a bounded request body into v.
func ReadJSON(r *http.Request, v any) error {
	if err := decodeBody(r.Body, v); err != nil {
		return fmt.Errorf("rpc: decode body: %w", err)
	}
	return nil
}

// decodeBody reads a JSON body to EOF into a pooled buffer and
// unmarshals it into v. The buffer grows only with the bytes actually
// received, never with a declared Content-Length — the rule
// wire.ReadFrame follows — and a recycled one already has its capacity.
// Releasing the buffer right after Unmarshal is safe: encoding/json
// copies strings and RawMessage values out of its input, so nothing
// decoded aliases it. The loop reads straight into the buffer's free
// space, capped one byte past the bound, so no limiting reader is
// allocated per call.
func decodeBody(r io.Reader, v any) error {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	for {
		buf.Grow(bytes.MinRead)
		free := buf.AvailableBuffer()
		n, err := r.Read(free[:min(cap(free), maxBodyBytes+1-buf.Len())])
		buf.Write(free[:n])
		switch {
		case buf.Len() > maxBodyBytes:
			return errBodyTooLarge
		case err == io.EOF:
			return json.Unmarshal(buf.Bytes(), v)
		case err != nil:
			return err
		}
	}
}

// defaultHTTPClient is shared by every Client whose HTTPClient field is
// nil. A single pooled transport matters under load-generator
// concurrency: the previous per-call `&http.Client{}` allocation gave
// each request a fresh connection pool, so nothing was ever reused and
// every request paid a TCP handshake. Keep-alive limits are sized for
// hundreds of concurrent simulated users against a handful of hosts.
// The transport carries no overall timeout: per-request deadlines are
// context-propagated by Client (Timeout / DefaultTimeout), so a caller
// with a tighter deadline is never held to a transport-wide constant.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          1024,
		MaxIdleConnsPerHost:   256,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	},
}

// Client calls an offloading HTTP endpoint. The zero configuration is
// a plain client with the default deadline; Timeout, Retry, and Hedge
// opt into the resilience ladder (deadline → retry budget → hedged
// second request) the chaos scenarios exercise.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the underlying transport; nil selects the shared
	// pooled client.
	HTTPClient *http.Client
	// Timeout bounds each call end to end — retries and hedges
	// included — as a context deadline (0 selects DefaultTimeout). A
	// caller context with an earlier deadline still wins.
	Timeout time.Duration
	// Retry, when non-nil, re-sends failed attempts under a bounded
	// budget with exponential backoff and seeded jitter.
	Retry *RetryPolicy
	// Hedge, when non-nil, races a delayed second request against a
	// slow primary.
	Hedge *HedgePolicy

	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	// binOnce/bin lazily build the persistent multiplexed connection
	// behind a bin:// BaseURL; binErr remembers an unusable address.
	binOnce sync.Once
	bin     *wire.Client
	binErr  error
}

// ClientOption configures a Client at construction. Options replace
// the historical post-hoc field pokes (c.Timeout = ...), so a built
// client is fully configured before its first call.
type ClientOption func(*Client)

// WithTimeout bounds each call end to end — retries and hedges
// included (0 keeps DefaultTimeout).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.Timeout = d }
}

// WithRetry installs a bounded retry budget.
func WithRetry(p *RetryPolicy) ClientOption {
	return func(c *Client) { c.Retry = p }
}

// WithHedge installs a hedged-request policy.
func WithHedge(p *HedgePolicy) ClientOption {
	return func(c *Client) { c.Hedge = p }
}

// WithHTTPClient overrides the shared pooled transport.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.HTTPClient = hc }
}

// NewClient builds a client on the shared pooled transport, applying
// options in order.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{BaseURL: baseURL}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// timeout reports the effective per-call deadline.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Stats snapshots the resilience counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
	}
}

// method describes one RPC on both transports: its HTTP path for the
// JSON mode, and how the framed mode sends it and decodes the answer.
// The type parameters keep the binary path free of interface boxing.
type method[Req, Resp any] struct {
	path   string
	send   func(*wire.Client, context.Context, time.Time, Req) (wire.Frame, error)
	decode func([]byte) (Resp, error)
	// answer is the frame type that carries the response.
	answer byte
}

var (
	offloadMethod = method[OffloadRequest, OffloadResponse]{
		PathOffload, (*wire.Client).Offload, wire.DecodeOffloadResponse, wire.FrameResponse}
	executeMethod = method[ExecuteRequest, ExecuteResponse]{
		PathExecute, (*wire.Client).Execute, wire.DecodeExecuteResponse, wire.FrameResponse}
	offloadBatchMethod = method[BatchRequest, BatchResponse]{
		PathOffloadBatch, (*wire.Client).OffloadBatch, wire.DecodeBatchResponse, wire.FrameBatch}
	executeBatchMethod = method[ExecuteBatchRequest, ExecuteBatchResponse]{
		PathExecuteBatch, (*wire.Client).ExecuteBatch, wire.DecodeExecuteBatchResponse, wire.FrameBatch}
)

// post sends one request over the configured transport. A bin://
// BaseURL routes through the binary framed protocol (binary.go);
// otherwise it is one JSON POST (postJSON). The response comes back by
// value, so a failed attempt never leaves a half-decoded one behind.
func post[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], deadline time.Time, in Req) (Resp, error) {
	if c.binary() {
		return binPost(ctx, c, m, deadline, in)
	}
	var out Resp
	err := c.postJSON(ctx, m.path, in, &out)
	return out, err
}

// binary reports whether the client speaks the framed protocol.
func (c *Client) binary() bool { return strings.HasPrefix(c.BaseURL, BinaryScheme) }

// postJSON sends in as one JSON POST and decodes the 200 answer into
// out. The request owns its body: the encoder output is copied out of
// the pooled buffer, because the transport may still read a body after
// Do returns. A *bytes.Reader body is one net/http knows to be in
// memory, so headers and body leave in one write, and
// NewRequestWithContext sets ContentLength and a GetBody that replays
// the same bytes on a stale keep-alive connection.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	buf := getEncodeBuf()
	err := json.NewEncoder(buf).Encode(in)
	payload := bytes.Clone(buf.Bytes())
	putEncodeBuf(buf)
	if err != nil {
		return fmt.Errorf("rpc: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("rpc: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// Draining the rest lets the transport reuse the connection.
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("rpc: %s: %w", path,
			&StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))})
	}
	// decodeBody reads to EOF, which hands the connection back to the
	// transport; an oversized body is closed without draining.
	if err := decodeBody(resp.Body, out); err != nil {
		return fmt.Errorf("rpc: decode response: %w", err)
	}
	return nil
}

// Offload sends an offloading request to a front-end. Under a retry or
// hedge policy the request is stamped with an idempotency key (unless
// the caller set one), so a re-sent or raced duplicate is served from
// the front-end's idempotency cache instead of executing the task
// twice.
func (c *Client) Offload(ctx context.Context, req OffloadRequest) (OffloadResponse, error) {
	if err := req.Validate(); err != nil {
		return OffloadResponse{}, err
	}
	c.stampIdemKey(&req)
	resp, err := call(ctx, c, &offloadMethod, req)
	if err != nil {
		return OffloadResponse{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("rpc: remote: %s", resp.Error)
	}
	return resp, nil
}

// OffloadBatch executes a chain of offload calls in one round trip
// (one binary batch frame, or one JSON POST in compat mode). Results
// arrive in call order, each carrying the HTTP-equivalent status the
// call would have received alone; the returned error covers
// whole-batch failures only. Idempotency keys are stamped per call
// under a retry or hedge policy — a hedged batch must never
// double-execute side-effecting tasks.
func (c *Client) OffloadBatch(ctx context.Context, calls []OffloadRequest) ([]BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if len(calls) > wire.MaxBatchCalls {
		return nil, fmt.Errorf("rpc: batch of %d calls exceeds cap %d", len(calls), wire.MaxBatchCalls)
	}
	batch := BatchRequest{Calls: make([]OffloadRequest, len(calls))}
	copy(batch.Calls, calls)
	for i := range batch.Calls {
		if err := batch.Calls[i].Validate(); err != nil {
			return nil, fmt.Errorf("rpc: batch call %d: %w", i, err)
		}
		c.stampIdemKey(&batch.Calls[i])
	}
	resp, err := call(ctx, c, &offloadBatchMethod, batch)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(calls) {
		return nil, fmt.Errorf("rpc: batch of %d calls answered with %d results", len(calls), len(resp.Results))
	}
	return resp.Results, nil
}

// idemSeq disambiguates keys within one process; the random prefix
// keeps keys from colliding across processes.
var (
	idemPrefix = rand.Uint64()
	idemSeq    atomic.Uint64
)

// stampIdemKey assigns an idempotency key when a retry or hedge policy
// could re-send the call. Plain clients stay key-free so the
// front-end's dedup cache sees no traffic from them.
func (c *Client) stampIdemKey(req *OffloadRequest) {
	if req.IdemKey != "" || (c.Retry == nil && c.Hedge == nil) {
		return
	}
	// "%x-%x" of the prefix and the sequence number, without fmt.
	var buf [2*16 + 1]byte
	key := strconv.AppendUint(buf[:0], idemPrefix, 16)
	key = append(key, '-')
	key = strconv.AppendUint(key, idemSeq.Add(1), 16)
	req.IdemKey = string(key)
}

// Execute sends a state directly to a surrogate.
func (c *Client) Execute(ctx context.Context, req ExecuteRequest) (ExecuteResponse, error) {
	resp, err := call(ctx, c, &executeMethod, req)
	if err != nil {
		return ExecuteResponse{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("rpc: remote: %s", resp.Error)
	}
	return resp, nil
}

// ExecuteBatch sends a batch of states to a surrogate in one round
// trip: one batch frame each way over bin://, one POST over HTTP.
// Results arrive in call order; per-call failures travel inside each
// result's Error field, and the returned error is transport-level
// only — it fails the whole batch, on both transports.
func (c *Client) ExecuteBatch(ctx context.Context, reqs []ExecuteRequest) ([]ExecuteResponse, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > wire.MaxBatchCalls {
		return nil, fmt.Errorf("rpc: batch of %d calls exceeds cap %d", len(reqs), wire.MaxBatchCalls)
	}
	out, err := call(ctx, c, &executeBatchMethod, ExecuteBatchRequest{Calls: reqs})
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(reqs) {
		return nil, fmt.Errorf("rpc: batch returned %d results for %d calls", len(out.Results), len(reqs))
	}
	return out.Results, nil
}

// Health checks a server's liveness endpoint. The configured Timeout
// applies; retries and hedges do not — health probing layers its own
// failure accounting (internal/health), so a probe must report exactly
// one attempt's truth.
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	if c.binary() {
		// The binary liveness probe is a ping frame on the persistent
		// connection (re-dialed if broken) — one attempt's truth, like
		// the HTTP probe.
		bc, err := c.wireClient()
		if err != nil {
			return fmt.Errorf("rpc: health: %w", err)
		}
		if err := bc.Ping(ctx); err != nil {
			return fmt.Errorf("rpc: health: %w", err)
		}
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+PathHealth, nil)
	if err != nil {
		return fmt.Errorf("rpc: build health request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("rpc: health: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rpc: health: status %d", resp.StatusCode)
	}
	return nil
}
