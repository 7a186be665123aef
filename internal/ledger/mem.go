package ledger

import (
	"sync"

	"xkernel/internal/msg"
)

// memNode is one live entry plus its position on the LRU list. Nodes
// are heap-allocated once per Record of a new key; Lookup only moves
// pointers, keeping the hot path allocation-free.
type memNode struct {
	key        Key
	entry      Entry
	held       heldFrames
	prev, next *memNode
}

// heldFrames is a node's storage for a reply recorded as frames: each
// frame held by value (msg.HoldInto), and the list of them an Entry's
// Frames is. A Record reuses it, so holding a channel's replies one after
// another allocates nothing once it has held the largest — unless a
// Lookup has lent the frames out since. Lent frames are never written
// again: the next Record takes fresh storage, and the replay that
// borrowed them keeps reading what was recorded.
type heldFrames struct {
	msgs []msg.Msg
	list []*msg.Msg
	lent bool
}

// hold copies frames into h and returns the list of the copies.
func (h *heldFrames) hold(frames []*msg.Msg) []*msg.Msg {
	if h.lent || len(frames) > cap(h.msgs) {
		*h = heldFrames{msgs: make([]msg.Msg, len(frames)), list: make([]*msg.Msg, len(frames))}
	}
	h.msgs, h.list = h.msgs[:len(frames)], h.list[:len(frames)]
	for i, f := range frames {
		f.HoldInto(&h.msgs[i])
		h.list[i] = &h.msgs[i]
	}
	return h.list
}

// MemOptions configures the volatile ledger.
type MemOptions struct {
	// MaxBytes caps the total reply bytes held; the least recently
	// used channels are evicted past it. 0 means DefaultMemMaxBytes;
	// negative means unbounded.
	MaxBytes int64
}

// DefaultMemMaxBytes is the reply-cache byte cap a zero MemOptions
// gets: enough for thousands of channels at typical reply sizes, small
// enough that a hot server cannot grow reply caches without limit.
const DefaultMemMaxBytes = 4 << 20

// Mem is the volatile execution ledger: the paper's in-memory
// saved-reply maps factored behind ExecLedger and bounded by an LRU
// byte cap. Reboot forgets everything, reproducing the pre-ledger
// crash semantics exactly.
type Mem struct {
	mu       sync.Mutex
	entries  map[Key]*memNode
	head     *memNode // most recently used
	tail     *memNode // least recently used
	bytes    int64
	maxBytes int64
	ctr      counters
}

// counters holds the plain-int stat fields shared by both
// implementations; all access is under the owning ledger's mutex.
type counters struct {
	lookups, hits, appends, evictions, retires int64
}

// NewMem returns a bounded volatile ledger.
func NewMem(opt MemOptions) *Mem {
	max := opt.MaxBytes
	if max == 0 {
		max = DefaultMemMaxBytes
	}
	return &Mem{entries: make(map[Key]*memNode), maxBytes: max}
}

// Lookup returns the entry for k, marking it most recently used.
// It performs no allocation (hotpathalloc-checked).
func (m *Mem) Lookup(k Key) (Entry, bool) {
	m.mu.Lock()
	m.ctr.lookups++
	n := m.entries[k]
	if n == nil {
		m.mu.Unlock()
		return Entry{}, false
	}
	m.ctr.hits++
	m.moveToFront(n)
	e := n.entry
	if e.Frames != nil {
		n.held.lent = true
	}
	m.mu.Unlock()
	return e, true
}

// Record stores e for k, replacing any previous entry, then evicts
// least recently used channels past the byte cap. Frames are held by
// value in k's own storage; a Reply blob is kept as it is. A volatile
// record cannot fail.
func (m *Mem) Record(k Key, e Entry) error {
	m.mu.Lock()
	m.ctr.appends++
	n := m.entries[k]
	if n != nil {
		m.bytes -= n.entry.size()
		m.moveToFront(n)
	} else {
		n = &memNode{key: k}
		m.entries[k] = n
		m.pushFront(n)
	}
	if e.Frames != nil {
		e.Frames = n.held.hold(e.Frames)
	}
	n.entry = e
	m.bytes += e.size()
	if m.maxBytes > 0 {
		for m.bytes > m.maxBytes && m.tail != nil && m.tail != m.head {
			m.evict(m.tail)
		}
	}
	m.mu.Unlock()
	return nil
}

// Retire drops the entry for k.
func (m *Mem) Retire(k Key) error {
	m.mu.Lock()
	m.ctr.retires++
	if n := m.entries[k]; n != nil {
		m.remove(n)
	}
	m.mu.Unlock()
	return nil
}

// Reboot loses everything: the volatile ledger's crash model.
func (m *Mem) Reboot() error {
	m.mu.Lock()
	m.entries = make(map[Key]*memNode)
	m.head, m.tail = nil, nil
	m.bytes = 0
	m.mu.Unlock()
	return nil
}

// Stats snapshots the counters.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Records:   int64(len(m.entries)),
		Bytes:     m.bytes,
		Lookups:   m.ctr.lookups,
		Hits:      m.ctr.hits,
		Appends:   m.ctr.appends,
		Evictions: m.ctr.evictions,
		Retires:   m.ctr.retires,
	}
	m.mu.Unlock()
	return s
}

// Dump lists live entries in most-recently-used order.
func (m *Mem) Dump() []RecordInfo {
	m.mu.Lock()
	out := make([]RecordInfo, 0, len(m.entries))
	for n := m.head; n != nil; n = n.next {
		out = append(out, RecordInfo{Key: n.key, ClientBoot: n.entry.ClientBoot, Seq: n.entry.Seq, ReplyBytes: int(n.entry.size())})
	}
	m.mu.Unlock()
	return out
}

// Close is a no-op for the volatile ledger.
func (m *Mem) Close() error { return nil }

func (m *Mem) pushFront(n *memNode) {
	n.prev = nil
	n.next = m.head
	if m.head != nil {
		m.head.prev = n
	}
	m.head = n
	if m.tail == nil {
		m.tail = n
	}
}

func (m *Mem) unlink(n *memNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (m *Mem) moveToFront(n *memNode) {
	if m.head == n {
		return
	}
	m.unlink(n)
	m.pushFront(n)
}

func (m *Mem) remove(n *memNode) {
	m.unlink(n)
	delete(m.entries, n.key)
	m.bytes -= n.entry.size()
}

func (m *Mem) evict(n *memNode) {
	m.remove(n)
	m.ctr.evictions++
}
