// Package msg implements the x-kernel message tool.
//
// A Msg carries a network message up or down a protocol stack. It is
// designed around the two buffer-management lessons reported in the paper
// (§5, "Potential Pitfalls of Layering"):
//
//  1. Pushing a header must not allocate. A Msg keeps a contiguous
//     "leader" area whose headers grow downward; Push simply moves a
//     pointer and copies the header bytes into the reserved space, and Pop
//     moves the pointer back up. The paper reports that switching from
//     per-header allocation to this scheme cut the minimum per-layer cost
//     from 0.50 msec to 0.11 msec on a Sun 3/75.
//
//  2. Fragmentation must not copy payload bytes. The body of a Msg is a
//     chain of blocks that reference shared, immutable backing arrays, so
//     Fragment produces messages that alias the original's storage, and
//     Join concatenates without copying. This mirrors the x-kernel's
//     reference-counted message tree: "for one protocol to discard its
//     handle on the message does not mean that the actual message is
//     deleted" (§3.2, footnote 1).
//
//  3. A message must not cost more than one allocation. The leader, the
//     first two blocks and the first two attributes live inside the Msg
//     (see the type), so creating, cloning or fragmenting a message is
//     one object for the collector, not three. A message cut into several
//     fragments costs less than one each: a Cutter (which Split uses)
//     takes their Msgs from slabs of four, then two, then one, so twelve
//     fragments are three objects, in exactly the bytes twelve would take.
//     The price is lifetime, not bytes: a slab lives while any of its Msgs
//     does, so a delivered message cut from one keeps up to three sibling
//     Msgs (960 bytes) alive until it is dropped.
//
// Len is O(1): every operation maintains the total length incrementally.
//
// Ownership discipline: bytes handed to Push/Append are copied or adopted
// as documented on each method; bytes returned by Pop/Peek are only valid
// until the next mutation of the Msg. A message handed to a session's
// Push (or Call) belongs to that session from then on — the layers push
// their headers onto it in place, and the wire may hand that very object
// to the receiving host — so a protocol that needs it again Clones it (or
// CopyIntos it) first. Msgs are not safe for concurrent mutation; protocols
// that share a Msg across goroutines must Clone first (Clone copies the
// Msg itself and shares the payload: never O(bytes)).
package msg

import (
	"errors"
	"fmt"
)

// DefaultLeader is the leader (header) space reserved by New when the
// caller does not specify one. 192 bytes holds the deepest stack in this
// repository (SUN_SELECT + a digest auth credential + REQUEST_REPLY +
// FRAGMENT + IP + ETH ≈ 150 bytes) with room to spare.
const DefaultLeader = 192

// Common errors returned by message operations.
var (
	ErrShortMessage = errors.New("msg: operation exceeds message length")
	ErrLeaderFull   = errors.New("msg: leader space exhausted")
	ErrBadRange     = errors.New("msg: bad offset/length")
)

// block is one node of the payload chain. Its data slice aliases a shared
// backing array; blocks are immutable once attached to any Msg so aliasing
// is safe.
type block struct {
	data []byte
}

// attr is one out-of-band attribute.
type attr struct {
	k AttrKey
	v any
}

// Inline capacities: a message whose leader, blocks and attributes fit
// them is a single heap object.
const (
	inlineBlocks = 2
	inlineAttrs  = 2
)

// Msg is an x-kernel message: a header leader plus a chain of payload
// blocks. The zero value is an empty message with no leader space; most
// callers use New or NewWithLeader.
//
// A Msg is one object. The leader (up to DefaultLeader bytes), the first
// two payload blocks and the first two attributes are stored inside the
// struct, so New, Empty, Fragment and Clone are one allocation each and
// Push, Pop, Append, Join and SetAttr within those bounds are none.
// Nothing in the struct points into the struct, so a Msg may be copied by
// value (Clone does); whatever does not fit inline lives in spill.
type Msg struct {
	// spill holds what outgrew the inline storage; nil for almost every
	// message on a protocol path.
	spill *spill

	// length caches len(headers) + sum(len(block.data)).
	length int

	// Headers occupy leader()[headStart:]. leadLen is the size of the
	// inline leader in use (the first leadLen bytes of lead), which is
	// what makes a small requested leader run out exactly where a
	// separately allocated one would.
	headStart int32
	leadLen   uint8
	nblocks   uint8
	nattrs    uint8

	blocks [inlineBlocks]block
	attrs  [inlineAttrs]attr

	// lead is last so the collector's pointer scan stops before it.
	lead [DefaultLeader]byte
}

// spill is the out-of-line part of a message. A non-nil slice replaces
// the corresponding inline storage entirely (blocks, leader) or extends
// it (attrs).
type spill struct {
	leader []byte  // a leader larger than DefaultLeader
	blocks []block // the whole chain, once it passed inlineBlocks
	attrs  []attr  // attributes beyond inlineAttrs
}

// AttrKey identifies an out-of-band message attribute. Packages define
// their own keys with distinct values.
type AttrKey int

// New returns a message whose payload is exactly data (adopted, not
// copied — the caller must not mutate data afterwards) and with
// DefaultLeader bytes of header space.
func New(data []byte) *Msg {
	return NewWithLeader(data, DefaultLeader)
}

// NewWithLeader is New with an explicit leader size.
func NewWithLeader(data []byte, leaderSize int) *Msg {
	m := &Msg{}
	m.setLeader(leaderSize)
	if len(data) > 0 {
		m.blocks[0] = block{data: data}
		m.nblocks = 1
		m.length = len(data)
	}
	return m
}

// setLeader gives a message that has none leaderSize bytes of header
// space: inline when it fits, out of line otherwise.
func (m *Msg) setLeader(leaderSize int) {
	if leaderSize < 0 {
		panic("msg: negative leader size")
	}
	if leaderSize > DefaultLeader {
		m.spill = &spill{leader: make([]byte, leaderSize)}
	} else {
		m.leadLen = uint8(leaderSize)
	}
	m.headStart = int32(leaderSize)
}

// Empty returns a message with no payload and DefaultLeader header space.
func Empty() *Msg { return NewWithLeader(nil, DefaultLeader) }

// MakeData returns a payload of n bytes with a recognizable pattern,
// useful for tests and workload generators.
func MakeData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// Len returns the total number of bytes in the message (headers + payload)
// in O(1) time. This is the "inexpensive operation for determining the
// length of a given message" that VIP's push relies on (§3.1).
func (m *Msg) Len() int { return m.length }

// leader returns the header area; headers occupy leader()[headStart:].
func (m *Msg) leader() []byte {
	if m.spill != nil && m.spill.leader != nil {
		return m.spill.leader
	}
	return m.lead[:m.leadLen]
}

// chain returns the payload blocks in order.
func (m *Msg) chain() []block {
	if m.spill != nil && m.spill.blocks != nil {
		return m.spill.blocks
	}
	return m.blocks[:m.nblocks]
}

// setChain stores b, a sub-slice of chain(), as the new chain. Inline
// chains are kept at the front of the inline array so Append finds the
// free slots after them.
func (m *Msg) setChain(b []block) {
	if m.spill != nil && m.spill.blocks != nil {
		m.spill.blocks = b
		return
	}
	m.nblocks = uint8(copy(m.blocks[:], b))
}

// headerLen reports how many header bytes are currently pushed.
func (m *Msg) headerLen() int { return len(m.leader()) - int(m.headStart) }

// Headroom reports how many more header bytes Push will accept.
func (m *Msg) Headroom() int { return int(m.headStart) }

// Push prepends hdr to the message. It fails with ErrLeaderFull if the
// leader area cannot hold it; protocols size the leader at New time, so in
// a correctly configured stack Push never allocates.
func (m *Msg) Push(hdr []byte) error {
	if len(hdr) > int(m.headStart) {
		return ErrLeaderFull
	}
	m.headStart -= int32(len(hdr))
	copy(m.leader()[m.headStart:], hdr)
	m.length += len(hdr)
	return nil
}

// MustPush is Push for statically sized headers known to fit; it panics on
// failure, which indicates a mis-configured stack rather than a runtime
// condition.
func (m *Msg) MustPush(hdr []byte) {
	if err := m.Push(hdr); err != nil {
		panic(fmt.Sprintf("msg: MustPush(%d bytes): %v", len(hdr), err))
	}
}

// Pop removes and returns the first n bytes of the message. The returned
// slice is valid until the message is next mutated. If the requested bytes
// are not contiguous (they straddle the leader/payload boundary or
// multiple payload blocks), Pop assembles them into a fresh slice; header
// pops in a well-formed stack are always contiguous and never copy.
func (m *Msg) Pop(n int) ([]byte, error) {
	b, err := m.Peek(n)
	if err != nil || n == 0 {
		return nil, err
	}
	hl := m.headerLen()
	if hl >= n {
		m.headStart += int32(n)
	} else {
		m.headStart += int32(hl)
		m.discardPayload(n - hl)
	}
	m.length -= n
	return b, nil
}

// discardPayload drops the first n payload bytes (n must be available).
func (m *Msg) discardPayload(n int) {
	bl := m.chain()
	for n > 0 {
		if len(bl[0].data) > n {
			bl[0].data = bl[0].data[n:]
			break
		}
		n -= len(bl[0].data)
		bl = bl[1:]
	}
	m.setChain(bl)
}

// Peek returns the first n bytes without consuming them. Like Pop it
// avoids copying when the bytes are contiguous.
func (m *Msg) Peek(n int) ([]byte, error) {
	if n < 0 || n > m.length {
		return nil, ErrShortMessage
	}
	if n == 0 {
		return nil, nil
	}
	hdrs := m.leader()[m.headStart:]
	if len(hdrs) >= n {
		return hdrs[:n], nil
	}
	bl := m.chain()
	if len(hdrs) == 0 && len(bl[0].data) >= n {
		return bl[0].data[:n], nil
	}
	out := make([]byte, 0, n)
	out = append(out, hdrs...)
	for i := 0; len(out) < n; i++ {
		d := bl[i].data
		if rest := n - len(out); len(d) > rest {
			d = d[:rest]
		}
		out = append(out, d...)
	}
	return out, nil
}

// Truncate discards all but the first n bytes of the message.
func (m *Msg) Truncate(n int) error {
	if n < 0 || n > m.length {
		return ErrShortMessage
	}
	drop := m.length - n
	// Drop whole tail blocks first.
	bl := m.chain()
	for drop > 0 && len(bl) > 0 {
		last := &bl[len(bl)-1]
		if len(last.data) <= drop {
			drop -= len(last.data)
			bl = bl[:len(bl)-1]
			continue
		}
		last.data = last.data[:len(last.data)-drop]
		drop = 0
	}
	m.setChain(bl)
	if drop > 0 {
		// The remainder comes out of the headers. Headers occupy
		// leader()[headStart:]; trimming the tail of the message means
		// trimming the tail of the header area.
		if m.spill != nil && m.spill.leader != nil {
			m.spill.leader = m.spill.leader[:len(m.spill.leader)-drop]
		} else {
			m.leadLen -= uint8(drop)
		}
	}
	m.length = n
	return nil
}

// Append adds data to the end of the message. The slice is adopted, not
// copied; the caller must not mutate it afterwards.
func (m *Msg) Append(data []byte) {
	if len(data) == 0 {
		return
	}
	m.length += len(data)
	if m.spill == nil || m.spill.blocks == nil {
		if m.nblocks < inlineBlocks {
			m.blocks[m.nblocks] = block{data: data}
			m.nblocks++
			return
		}
		m.spillChain(4 * inlineBlocks)
	}
	m.spill.blocks = append(m.spill.blocks, block{data: data})
}

// spillChain moves the chain out of line, into room for n blocks. The
// chain moves out whole; the inline slots are emptied so a spilled chain
// that later drains falls back to an empty one.
func (m *Msg) spillChain(n int) {
	bl := append(make([]block, 0, n), m.chain()...)
	if m.spill == nil {
		m.spill = &spill{}
	}
	m.spill.blocks = bl
	m.blocks = [inlineBlocks]block{}
	m.nblocks = 0
}

// lowerHeadroom is the leader a fragment keeps free for the headers
// pushed onto it after the cut: xk.LowerHeadroom, which this package sits
// beneath and cannot import (xk's tests hold the two equal).
const lowerHeadroom = 64

// Fragment returns a new message containing bytes [off, off+n) of m,
// sharing payload storage with m. Payload bytes are never copied. Header
// bytes in the range live in m's mutable leader, so they are copied: into
// the fragment's own leader, as if pushed there, when they fit in it and
// leave lowerHeadroom free; otherwise into a fresh payload block, which
// costs an allocation. The fragment gets leader bytes of header space,
// less whatever those header bytes took. m is unchanged.
//
// Fragment is one object per fragment; a message cut into several goes
// through a Cutter instead, which cuts the same fragments from slabs.
func (m *Msg) Fragment(off, n, leader int) (*Msg, error) {
	f := new(Msg)
	if err := m.FragmentInto(f, off, n, leader); err != nil {
		return nil, err
	}
	return f, nil
}

// FragmentInto makes *dst the fragment Fragment(off, n, leader) returns,
// in storage the caller owns. *dst must be the zero Msg — fresh storage,
// as new(Msg) and a Cutter's slabs are: it is filled, not cleared first,
// so a cut zeroes its storage once, when it is allocated.
func (m *Msg) FragmentInto(dst *Msg, off, n, leader int) error {
	if off < 0 || n < 0 || off+n > m.length {
		return ErrBadRange
	}
	dst.setLeader(leader)
	remain := n
	skip := off
	// Header region first.
	hl := m.headerLen()
	if skip < hl {
		take := min(hl-skip, remain)
		hdr := m.leader()[int(m.headStart)+skip:][:take]
		if take+lowerHeadroom <= leader {
			dst.MustPush(hdr)
		} else {
			dst.Append(append([]byte(nil), hdr...))
		}
		remain -= take
		skip = hl
	}
	skip -= hl
	for _, b := range m.chain() {
		if remain == 0 {
			break
		}
		d := b.data
		if skip >= len(d) {
			skip -= len(d)
			continue
		}
		d = d[skip:]
		skip = 0
		if len(d) > remain {
			d = d[:remain]
		}
		dst.Append(d) // aliases m's storage; blocks are immutable
		remain -= len(d)
	}
	return nil
}

// A Cutter hands out the storage of a message's fragments from slabs: of
// four Msgs while four or more fragments are left to cut, then of two,
// then of one. A Msg is 312 bytes, so those slabs fill the allocator's
// 320-, 640- and 1280-byte size classes exactly: a cut costs the bytes of
// one object per fragment, in a quarter of the objects. (A slab of three
// would take 1024 bytes for 960, and one of twelve 4096 for 3840.)
//
// Every fragment is still its own Msg, owned by whoever it is handed to,
// but a slab is freed only when none of its Msgs is reachable: a delivered
// message that began as a cut fragment keeps up to three siblings (960
// bytes) alive until it is dropped.
//
// Reset sizes a Cutter to the cut at hand; the zero Cutter cuts one
// fragment per slab. A Cutter is a value on its user's stack.
type Cutter struct {
	left int   // fragments still to cut, as Reset and the cuts since say
	slab []Msg // storage not yet handed out
}

// Reset readies c for the next n fragments. Storage not yet handed out
// is dropped.
func (c *Cutter) Reset(n int) { c.left, c.slab = n, nil }

// Fragment is m.Fragment(off, n, leader), cut into c's next Msg.
func (c *Cutter) Fragment(m *Msg, off, n, leader int) (*Msg, error) {
	if len(c.slab) == 0 {
		k := 1
		if c.left >= 4 {
			k = 4
		} else if c.left >= 2 {
			k = 2
		}
		c.slab = make([]Msg, k)
	}
	f := &c.slab[0]
	c.slab = c.slab[1:]
	c.left--
	if err := m.FragmentInto(f, off, n, leader); err != nil {
		return nil, err
	}
	return f, nil
}

// Split breaks the message payload into fragments of at most size bytes
// each (headers included in the byte count), every fragment with leader
// bytes of header space. The fragments are cut through one Cutter, so
// they cost its slabs, and the slice listing them is the one other
// allocation. An empty message is one empty fragment. The original
// message is unchanged.
func (m *Msg) Split(size, leader int) ([]*Msg, error) {
	if size <= 0 {
		return nil, ErrBadRange
	}
	frags := make([]*Msg, max(1, (m.length+size-1)/size))
	var c Cutter
	c.Reset(len(frags))
	for i := range frags {
		off := i * size
		f, err := c.Fragment(m, off, min(size, m.length-off), leader)
		if err != nil {
			return nil, err
		}
		frags[i] = f
	}
	return frags, nil
}

// Join appends the contents of other to m without copying payload bytes.
// other's header bytes (if any) are copied, because they live in other's
// mutable leader. other must not be mutated afterwards.
func (m *Msg) Join(other *Msg) {
	if hl := other.headerLen(); hl > 0 {
		cp := make([]byte, hl)
		copy(cp, other.leader()[other.headStart:])
		m.Append(cp)
	}
	for _, b := range other.chain() {
		m.Append(b.data)
	}
}

// JoinAll appends the contents of each of others to m, in order, as
// successive Joins would, but grows the chain once, to its final size:
// reassembling a message onto its first fragment costs the out-of-line
// chain and nothing else.
func (m *Msg) JoinAll(others []*Msg) {
	need := len(m.chain())
	for _, o := range others {
		need += len(o.chain())
		if o.headerLen() > 0 {
			need++
		}
	}
	if need > inlineBlocks && (m.spill == nil || cap(m.spill.blocks) < need) {
		m.spillChain(need)
	}
	for _, o := range others {
		m.Join(o)
	}
}

// Clone returns a message with the same contents as m. Payload blocks are
// shared (O(blocks)); the header leader is copied so the two messages can
// push and pop independently. Attributes are shallow-copied.
func (m *Msg) Clone() *Msg {
	c := new(Msg)
	m.CopyInto(c)
	return c
}

// CopyInto makes *dst a clone of m in storage the caller already has — a
// field of a per-binding structure that keeps a message for later without
// a heap object per message. It allocates nothing unless m has spilled.
func (m *Msg) CopyInto(dst *Msg) {
	*dst = *m
	if sp := m.spill; sp != nil {
		dst.spill = &spill{
			leader: append([]byte(nil), sp.leader...),
			blocks: append([]block(nil), sp.blocks...),
			attrs:  append([]attr(nil), sp.attrs...),
		}
	}
}

// HoldInto makes *dst a copy of m to keep, in storage *dst already owns:
// a reply held for retransmission. The header bytes are copied, the
// payload blocks are shared (they are immutable), and the attributes,
// which describe a message to the host it is on, are dropped. A spilled
// chain or leader is copied into the out-of-line storage an earlier
// HoldInto left in *dst, so holding message after message of one shape
// into the same *dst allocates nothing; CopyInto would allocate twice for
// a spilled message every time.
//
// *dst's out-of-line storage must be its own: *dst is the zero Msg or was
// only ever a HoldInto destination, never pushed, cloned into or handed on.
func (m *Msg) HoldInto(dst *Msg) {
	sp := dst.spill
	*dst = *m
	dst.spill = nil
	dst.attrs = [inlineAttrs]attr{}
	dst.nattrs = 0
	src := m.spill
	if src == nil || (src.leader == nil && src.blocks == nil) {
		return
	}
	if sp == nil {
		sp = &spill{}
	}
	sp.leader = holdSlice(sp.leader, src.leader)
	sp.blocks = holdSlice(sp.blocks, src.blocks)
	sp.attrs = nil
	dst.spill = sp
}

// holdSlice copies src into dst's storage, growing it only when src is
// longer; a nil src stays nil, which says the inline storage is in use.
func holdSlice[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// Bytes flattens the whole message into a single fresh slice. It is the
// boundary operation used by drivers putting a frame on the wire and by
// applications consuming a delivered message; protocols in the middle of
// the stack never need it.
func (m *Msg) Bytes() []byte {
	return m.AppendTo(make([]byte, 0, m.length))
}

// AppendTo appends the flattened message to dst and returns the extended
// slice: Bytes into a buffer the caller already has.
func (m *Msg) AppendTo(dst []byte) []byte {
	dst = append(dst, m.leader()[m.headStart:]...)
	for _, b := range m.chain() {
		dst = append(dst, b.data...)
	}
	return dst
}

// SetAttr attaches an out-of-band attribute to the message.
func (m *Msg) SetAttr(k AttrKey, v any) {
	if a := m.findAttr(k); a != nil {
		a.v = v
		return
	}
	if m.nattrs < inlineAttrs {
		m.attrs[m.nattrs] = attr{k, v}
		m.nattrs++
		return
	}
	if m.spill == nil {
		m.spill = &spill{}
	}
	m.spill.attrs = append(m.spill.attrs, attr{k, v})
}

// ClearAttrs removes every out-of-band attribute. Attributes describe a
// message to the host it is on; a wire that hands the message itself to
// the next host clears them on the way.
func (m *Msg) ClearAttrs() {
	if m.nattrs != 0 {
		m.attrs = [inlineAttrs]attr{}
		m.nattrs = 0
	}
	if m.spill != nil {
		m.spill.attrs = nil
	}
}

// Attr retrieves an out-of-band attribute; ok reports whether it was set.
func (m *Msg) Attr(k AttrKey) (v any, ok bool) {
	if a := m.findAttr(k); a != nil {
		return a.v, true
	}
	return nil, false
}

// findAttr is a linear search: messages carry a couple of attributes at
// most, and a search of two slots beats hashing into a map.
func (m *Msg) findAttr(k AttrKey) *attr {
	for i := range m.attrs[:m.nattrs] {
		if m.attrs[i].k == k {
			return &m.attrs[i]
		}
	}
	if m.spill != nil {
		for i := range m.spill.attrs {
			if m.spill.attrs[i].k == k {
				return &m.spill.attrs[i]
			}
		}
	}
	return nil
}

// String summarizes the message for tracing.
func (m *Msg) String() string {
	return fmt.Sprintf("Msg{len=%d hdr=%d blocks=%d}", m.length, m.headerLen(), len(m.chain()))
}
