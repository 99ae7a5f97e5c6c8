package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Buffer reuse on the framed path (DESIGN.md §8, "Buffer ownership and
// allocation budget"). What is reused never outlives the call that
// borrowed it: outbound payloads are encoded into pooled scratch and
// copied into the connection's write buffer before the write returns,
// and name strings are shared because strings are immutable. Inbound
// payloads differ by side. A Server reads each request frame into
// pooled scratch and takes it back once the dispatch that served it
// has returned and its reply is written, so a handler's decoded
// State.Data is valid only until the handler returns (see Handlers).
// A Conn's read loop hands its response frames to callers who keep
// the decoded Result.Data, so there ReadFrame allocates each payload
// fresh and nothing here ever takes it back.

// scratch is a pooled buffer for one outbound payload or one inbound
// request frame.
type scratch struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxScratch caps what goes back to the pool, so one huge application
// state does not pin its buffer forever.
const maxScratch = 1 << 20

// poisonFrames makes release overwrite the whole buffer before pooling
// it, so a slice kept past its release reads garbage instead of bytes
// that merely happen to survive. Only tests set it.
var poisonFrames bool

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the buffer once the frame carrying it is written, or
// once the dispatch that read it has returned.
func (s *scratch) release() {
	if cap(s.b) > maxScratch {
		return
	}
	if poisonFrames {
		b := s.b[:cap(s.b)]
		for i := range b {
			b[i] = 0xdb
		}
	}
	s.b = s.b[:0]
	scratchPool.Put(s)
}

// batchSlots are the call and result slices of one inbound execute
// batch: the server decodes the calls into one, the handler fills the
// other, and both go back to the pool once the reply is written. Each
// call's State.Data aliases the frame's pooled payload, which goes back
// only after these slots do; release zeroes every element first, so a
// pooled slice keeps no State or Result, nor a recycled frame,
// reachable.
type batchSlots struct {
	calls []ExecuteRequest
	out   []ExecuteResponse
}

var batchPool = sync.Pool{New: func() any { return new(batchSlots) }}

func getBatchSlots() *batchSlots { return batchPool.Get().(*batchSlots) }

func (b *batchSlots) release() {
	clear(b.calls[:cap(b.calls)])
	clear(b.out[:cap(b.out)])
	b.calls, b.out = b.calls[:0], b.out[:0]
	batchPool.Put(b)
}

// frameWriter serializes frames onto one connection: one encode into
// the reused buffer and one Write per frame, under the mutex.
type frameWriter struct {
	mu  sync.Mutex
	nc  net.Conn
	buf []byte
}

func (w *frameWriter) write(f Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	w.buf, err = WriteFrame(w.nc, w.buf, f)
	return err
}

// Name interning: task, server and region names come from a small
// fixed vocabulary (the pushed bundles, the registered surrogates, the
// deployed regions), yet every decode used to allocate them anew. The
// names arrive in undecoded peer input, so the table is a best-effort
// cache, bounded in entries and in key length: hostile or
// high-cardinality input can neither grow it without limit nor change
// what a decode returns — a miss on a full table, or a long name,
// allocates exactly as string(b) always did. A full table is not full
// for good: it starts over, at most once per internRestart, so junk
// names cost the real vocabulary one allocation each per restart
// instead of the saving for the rest of the process's life.
const (
	internCap     = 256
	internMaxLen  = 64
	internRestart = time.Second
)

var (
	// internTab is copy-on-write: lookups load one pointer and take no
	// lock; an insert (at most internCap per restart) republishes.
	internTab atomic.Pointer[map[string]string]
	internMu  sync.Mutex
	// internFull is when the table last started over, in UnixNano.
	internFull atomic.Int64
)

func internTable() map[string]string {
	if p := internTab.Load(); p != nil {
		return *p
	}
	return nil
}

func intern(b []byte) string {
	tab := internTable()
	if s, ok := tab[string(b)]; ok { // a lookup by converted key does not allocate
		return s
	}
	s := string(b)
	if len(b) == 0 || len(b) > internMaxLen || (len(tab) >= internCap && !internMayRestart()) {
		return s
	}
	internMu.Lock()
	defer internMu.Unlock()
	tab = internTable()
	if prior, ok := tab[s]; ok {
		return prior
	}
	if len(tab) >= internCap {
		if !internMayRestart() {
			return s
		}
		internFull.Store(time.Now().UnixNano())
		tab = nil
	}
	next := make(map[string]string, len(tab)+1)
	for k, v := range tab {
		next[k] = v
	}
	next[s] = s
	internTab.Store(&next)
	return s
}

// internMayRestart reports whether a full table is old enough to start
// over.
func internMayRestart() bool {
	return time.Now().UnixNano()-internFull.Load() >= int64(internRestart)
}
