package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/msg"
)

// MsgIDAttr is the message attribute carrying the observability
// message id ("OBSM"). Attributes ride a *msg.Msg through push/pop and
// across Clone, but not across the wire or across fragmentation (both
// build fresh messages), so one RPC is observed as several
// id-correlated legs — e.g. client-down, server-up, server-down,
// client-up — stitched into a full path by the records' seq order. A
// reassembled message is its first fragment with the others joined on,
// so the leg above reassembly carries the first fragment's id.
const MsgIDAttr msg.AttrKey = 0x4F42534D

var msgIDSeq atomic.Uint64

// EnsureMsgID returns m's message id, assigning the next id if m does
// not carry one yet.
func EnsureMsgID(m *msg.Msg) uint64 {
	if v, ok := m.Attr(MsgIDAttr); ok {
		if id, ok := v.(uint64); ok {
			return id
		}
	}
	id := msgIDSeq.Add(1)
	m.SetAttr(MsgIDAttr, id)
	return id
}

// MsgID reports m's message id without assigning one.
func MsgID(m *msg.Msg) (uint64, bool) {
	if v, ok := m.Attr(MsgIDAttr); ok {
		if id, ok := v.(uint64); ok {
			return id, true
		}
	}
	return 0, false
}

// Event is one structured trace record. Seq totally orders records
// within a tracer; with the default synchronous simulator the order is
// the actual shepherd path (server-side records nest between a
// client's push and the matching pop).
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"t_ns"`
	Layer  string `json:"layer"`
	Event  string `json:"event"`
	MsgID  uint64 `json:"msgid,omitempty"`
	Len    int    `json:"len,omitempty"`
	Err    string `json:"err,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Event names emitted by instrumented boundaries. "frame" and
// app-level "call"/"return" records are emitted by tools that also
// watch the wire or the application boundary.
const (
	EventPush   = "push"   // message crossed the boundary downward
	EventPop    = "pop"    // message crossed the boundary upward
	EventDrop   = "drop"   // a crossing returned an error
	EventCall   = "call"   // synchronous request entered the boundary
	EventReturn = "return" // synchronous reply came back up
	EventOpen   = "open"   // active open through the boundary
	EventFrame  = "frame"  // frame observed on the simulated wire
)

// Tracer emits JSONL trace records. Encoding happens under a single
// mutex into a buffered writer; call Flush before reading the
// destination.
type Tracer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	seq    uint64
	start  time.Time
	filter func(layer string) bool
	// Observer, when set, receives a copy of every emitted record
	// (after filtering); tools use it to reconstruct paths in memory.
	observer func(Event)
}

// NewTracer returns a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{bw: bufio.NewWriterSize(w, 32*1024), start: time.Now()}
}

// SetFilter installs a layer predicate; records whose layer does not
// satisfy it are suppressed. Pass nil to clear.
func (t *Tracer) SetFilter(f func(layer string) bool) {
	t.mu.Lock()
	t.filter = f
	t.mu.Unlock()
}

// FilterSubstring is a convenience filter matching layers containing
// sub (case-sensitive); app-level and wire-level records ("app",
// "wire" layers) always pass so paths stay anchored.
func FilterSubstring(sub string) func(string) bool {
	return func(layer string) bool {
		return layer == "app" || layer == "wire" || strings.Contains(layer, sub)
	}
}

// SetObserver installs a callback receiving every record after
// filtering. Pass nil to clear.
func (t *Tracer) SetObserver(f func(Event)) {
	t.mu.Lock()
	t.observer = f
	t.mu.Unlock()
}

// Emit writes one record.
func (t *Tracer) Emit(layer, event string, msgid uint64, length int, errStr string) {
	t.EmitDetail(layer, event, msgid, length, errStr, "")
}

// EmitDetail writes one record with a free-form detail field.
func (t *Tracer) EmitDetail(layer, event string, msgid uint64, length int, errStr, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filter != nil && !t.filter(layer) {
		return
	}
	t.seq++
	ev := Event{
		Seq:    t.seq,
		TimeNs: time.Since(t.start).Nanoseconds(),
		Layer:  layer,
		Event:  event,
		MsgID:  msgid,
		Len:    length,
		Err:    errStr,
		Detail: detail,
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	t.bw.Write(b)
	t.bw.WriteByte('\n')
	if t.observer != nil {
		t.observer(ev)
	}
}

// Flush drains the buffered writer.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}
