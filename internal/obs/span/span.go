// Package span implements causal span tracing for the protocol suite:
// the per-RPC counterpart of the paper's cost decomposition (§4, Tables
// I–III). Where the meter aggregates per-boundary totals, a span
// records one timed interval of one message's life — a push through one
// layer, a demux up one boundary, a frame's transit across the
// simulated wire, a handler execution — with enough causal structure
// (msgid, parent span) that the anatomy analyzer can rebuild the whole
// RPC as a tree and attribute every microsecond of the end-to-end time
// to exactly one layer.
//
// The recorder follows the trace tool's hot-path contract: when
// disabled (the default), a capture site costs one atomic pointer load
// plus one atomic bool load and allocates nothing — the guard is
// checked before any argument is materialized. When enabled, spans are
// recorded into a preallocated in-memory buffer under a short mutex
// (no encoding, no I/O on the shepherd path); the buffer is bounded
// and drops-with-count rather than growing without limit.
//
// Causality is threaded two ways, mirroring how the meter's msgid
// works (see obs.MsgIDAttr):
//
//   - Within one leg of an RPC, the current span id rides the message
//     as an attribute; a boundary opening a span records the previous
//     current span as its parent and restores it when the span closes.
//   - Across the wire and across reassembly — where messages are
//     rebuilt and the attribute does not follow (a reassembled message
//     carries what its first fragment was left with, usually nothing) —
//     spans carry no parent and the anatomy analyzer attaches them by
//     interval containment, which is exact under the simulator's
//     synchronous delivery.
package span

import (
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/msg"
)

// CtxAttr is the message attribute carrying the innermost open span's
// id ("OBSS"). It rides a *msg.Msg through push/pop and across Clone,
// but not across the wire (frames are bytes) or across fragmentation
// and reassembly (fresh fragments; a message assembled on a first
// fragment whose own crossing has usually closed), so each leg of an RPC
// roots its own subtree; the analyzer stitches legs together by
// containment.
const CtxAttr msg.AttrKey = 0x4F425353

// Span directions. A span's direction says which way the message was
// crossing the boundary that opened it.
const (
	// DirDown: the message crossed the boundary downward (toward the
	// wire). In a synchronous run the span covers everything below —
	// its exclusive time is this layer's own downward cost.
	DirDown = "down"
	// DirUp: the message was demultiplexed upward across the boundary;
	// the span covers the delivery above it.
	DirUp = "up"
	// DirCall: a synchronous round trip entered the boundary
	// (CHANNEL-style Call); the span covers the full round trip below.
	DirCall = "call"
	// DirWire: a frame transited the simulated wire. Wire spans carry
	// the transit attribution fields (serialization, latency, queue).
	DirWire = "wire"
	// DirHandler: the server-side procedure body ran.
	DirHandler = "handler"
)

// Span is one recorded interval. IDs are 1-based and local to a
// Recorder; Parent is 0 for spans with no recorded parent.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// MsgID is the obs message id of the leg this span observed, 0
	// when the capture site had no message (root and wire spans).
	MsgID   uint64 `json:"msgid,omitempty"`
	Layer   string `json:"layer"`
	Dir     string `json:"dir"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
	Err     string `json:"err,omitempty"`
	Detail  string `json:"detail,omitempty"`

	// Wire transit attribution (DirWire spans only): the modeled
	// serialization time at the configured bandwidth, the configured
	// propagation latency, and the measured time the frame sat in the
	// reorder hold before release. These are reported separately in
	// the anatomy's wire row; they are attribution fields, not
	// sub-spans, so the tree's exclusive-time arithmetic stays exact.
	WireSerNs   int64 `json:"wire_ser_ns,omitempty"`
	WireLatNs   int64 `json:"wire_lat_ns,omitempty"`
	WireQueueNs int64 `json:"wire_queue_ns,omitempty"`

	// Done reports that End was called; the integrity tests assert
	// every opened span is closed.
	Done bool `json:"done"`
}

// Duration is the span's closed interval length in nanoseconds.
func (s *Span) Duration() int64 { return s.EndNs - s.StartNs }

// DefaultMaxSpans bounds a recorder built with NewRecorder(0): 1<<18
// spans (~256k) holds thousands of RPCs through the deepest stack.
const DefaultMaxSpans = 1 << 18

// Recorder is a bounded in-memory span store. The zero value is not
// usable; use NewRecorder. A nil *Recorder is a valid disabled
// recorder: every method is nil-safe, so capture sites hold one
// pointer and never branch on construction.
type Recorder struct {
	enabled atomic.Bool
	start   time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int64
	max     int
}

// NewRecorder returns a disabled recorder holding at most max spans
// (0 means DefaultMaxSpans). Call Enable to start capturing.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	initial := max
	if initial > 4096 {
		initial = 4096
	}
	return &Recorder{
		start: time.Now(),
		spans: make([]Span, 0, initial),
		max:   max,
	}
}

// Enabled reports whether capture sites should record. It is the hot
// guard: nil-safe, one atomic load, no allocation.
func (r *Recorder) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// Enable starts capturing.
func (r *Recorder) Enable() { r.enabled.Store(true) }

// Disable stops capturing; already-recorded spans remain readable.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Since converts an absolute time to recorder nanoseconds. Capture
// sites with an injected clock (the simulator) use this so their
// timestamps share the recorder's epoch with sites using NowNs.
func (r *Recorder) Since(t time.Time) int64 { return t.Sub(r.start).Nanoseconds() }

// NowNs is Since(time.Now()): the timestamp helper for capture sites
// on the real clock.
func (r *Recorder) NowNs() int64 { return time.Since(r.start).Nanoseconds() }

// Begin records the opening of a span and returns its id, 0 when the
// recorder is disabled or full (End of id 0 is a no-op, so capture
// sites need not re-check). startNs comes from NowNs or Since.
func (r *Recorder) Begin(layer, dir string, msgid, parent uint64, bytes int, startNs int64) uint64 {
	if !r.Enabled() {
		return 0
	}
	r.mu.Lock()
	if len(r.spans) >= r.max {
		r.dropped++
		r.mu.Unlock()
		return 0
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID:      id,
		Parent:  parent,
		MsgID:   msgid,
		Layer:   layer,
		Dir:     dir,
		Bytes:   bytes,
		StartNs: startNs,
	})
	r.mu.Unlock()
	return id
}

// End closes span id at endNs with an optional error string. Ending
// id 0 (a Begin that was dropped or disabled) is a no-op.
func (r *Recorder) End(id uint64, endNs int64, errStr string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if id <= uint64(len(r.spans)) {
		s := &r.spans[id-1]
		s.EndNs = endNs
		s.Err = errStr
		s.Done = true
	}
	r.mu.Unlock()
}

// EndWire closes a wire span with its transit attribution: the modeled
// serialization time, the configured propagation latency, and the
// measured reorder-hold queueing.
func (r *Recorder) EndWire(id uint64, endNs, serNs, latNs, queueNs int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if id <= uint64(len(r.spans)) {
		s := &r.spans[id-1]
		s.EndNs = endNs
		s.WireSerNs = serNs
		s.WireLatNs = latNs
		s.WireQueueNs = queueNs
		s.Done = true
	}
	r.mu.Unlock()
}

// SetDetail attaches a free-form detail string to span id (wire spans
// record "disposition src->dst" this way). Formatting the detail is
// the caller's cost, paid only on the enabled path.
func (r *Recorder) SetDetail(id uint64, detail string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if id <= uint64(len(r.spans)) {
		r.spans[id-1].Detail = detail
	}
	r.mu.Unlock()
}

// BeginMsg opens a span for a message crossing a boundary: the parent
// is the message's current span, and the new span becomes current so
// deeper boundaries nest under it. Use EndMsg to close and restore.
func (r *Recorder) BeginMsg(layer, dir string, msgid uint64, m *msg.Msg) uint64 {
	if !r.Enabled() {
		return 0
	}
	id := r.Begin(layer, dir, msgid, Current(m), m.Len(), r.NowNs())
	if id != 0 {
		setCurrent(m, id)
	}
	return id
}

// EndMsg closes a BeginMsg span and restores the message's current
// span to the closed span's parent, so sibling crossings (the next
// fragment, a retransmission from a held copy) parent correctly.
func (r *Recorder) EndMsg(id uint64, m *msg.Msg, errStr string) {
	if r == nil || id == 0 {
		return
	}
	endNs := r.NowNs()
	r.mu.Lock()
	var parent uint64
	if id <= uint64(len(r.spans)) {
		s := &r.spans[id-1]
		s.EndNs = endNs
		s.Err = errStr
		s.Done = true
		parent = s.Parent
	}
	r.mu.Unlock()
	if m != nil {
		setCurrent(m, parent)
	}
}

// Spans returns a snapshot copy of everything recorded so far, in
// begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len reports how many spans are recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped reports how many Begins were refused by the buffer bound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all recorded spans and the drop count, keeping the
// enabled state and epoch.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// ErrString renders an error for a span record; nil is "". Capture
// sites use it so the error is only stringified on the enabled path.
func ErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Current reports m's current span id, 0 when none.
func Current(m *msg.Msg) uint64 {
	if m == nil {
		return 0
	}
	if v, ok := m.Attr(CtxAttr); ok {
		if id, ok := v.(uint64); ok {
			return id
		}
	}
	return 0
}

// setCurrent rebinds m's current span.
func setCurrent(m *msg.Msg, id uint64) {
	if m != nil {
		m.SetAttr(CtxAttr, id)
	}
}
