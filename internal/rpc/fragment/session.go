package fragment

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// session carries FRAGMENT messages between this host and one peer on
// behalf of one high-level protocol. It is symmetric: the same session
// sends, receives, honours resend requests, and issues them. Its two
// timers are its own, not its messages': one sweep expires the send hold
// and one gap event chases every incomplete collection.
type session struct {
	xk.BaseSession
	p      *Protocol
	proto  ip.ProtoNum
	remote xk.IPAddr
	// peerHost is remote boxed once at open: the layer above asks for it
	// through Control on every message, and boxing per answer would
	// allocate per message.
	peerHost any

	// Every client's messages write nextSeq or read collecting: padded off
	// the lines of fields a message only reads (up, lower, p, peerHost).
	_ [64]byte
	// collecting is len(rcv), readable without mu: while it is zero no
	// collection exists for a whole-message frame to contradict, so the
	// one-fragment receive path takes no lock. Written under mu, beside
	// every insert into and delete from rcv.
	collecting atomic.Int32

	// nextSeq numbers the messages this session sends; an atomic add, so
	// a send that holds nothing (one fragment) takes no lock. A held
	// message takes its number under mu (see sent).
	nextSeq atomic.Uint32
	_       [56]byte

	mu sync.Mutex
	// sent[head:] is the send hold, in send order: numbered and held under
	// mu, its seqs and expiries both increase, so the sweep pops off the
	// head and a resend request binary-searches.
	sent []sentMsg
	head int
	rcv  map[uint32]*rcvMsg
	// free keeps up to maxFreeRecords collection records between
	// messages: a collection in a steady stream allocates nothing.
	free []*rcvMsg
	// sweep is the periodic discard of expired held messages: one event
	// per session, created at the first hold and re-armed from then on,
	// so a sweep costs no allocation. sweeping says an arm is pending.
	sweep    *event.Event
	sweeping bool
	// gap is the one gap event, armed for gapAt (zero while idle) and
	// moved only for an earlier due: no later than any collection's.
	gap   *event.Event
	gapAt time.Time
}

const maxFreeRecords = 8

// sentMsg is a transmitted message held for resend requests until the
// hold window passes: the one message Push was given, from which every
// transmission of a fragment, first or resent, is cut as it is sent. A
// held message is immutable, so the send loop and any number of resends
// read it concurrently. Expiry is one periodic sweep per session, not one
// timer per message, so a held message lives between SendHold and about
// 1.5×SendHold — the paper requires only that the sender eventually
// "discards the message when the timer expires".
type sentMsg struct {
	seq      uint32
	numFrags int
	m        *msg.Msg
	expires  time.Time
}

// rcvMsg collects an incoming message. due is when the session's gap
// event next chases it; the record holds no timer of its own, so a
// completed or abandoned message's record is always free to reuse.
type rcvMsg struct {
	seq      uint32
	numFrags uint16
	mask     uint16
	retries  int
	due      time.Time
	frags    [fragmask.Max]*msg.Msg
}

func newSession(p *Protocol, hlp xk.Protocol, proto ip.ProtoNum, remote xk.IPAddr, lls xk.Session) *session {
	s := &session{
		p:        p,
		proto:    proto,
		remote:   remote,
		peerHost: remote,
		rcv:      make(map[uint32]*rcvMsg),
	}
	s.InitSession(p, hlp, lls)
	return s
}

// Push sends m as one FRAGMENT message. Push consumes m (the ownership
// rule of DESIGN.md: a layer that must keep a message clones it).
//
// A message that fits one packet is not held for resend requests,
// because none can arrive — a receiver chases missing fragments only of
// a message that has more than one — so it costs no hold entry and no
// sweep timer. Anything longer is held as it is, under the send-hold
// window, and each fragment is cut from it as it is sent.
func (s *session) Push(m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	p := s.p
	if m.Len() > p.cfg.MaxMsg {
		return fmt.Errorf("%s: %d bytes: %w", p.Name(), m.Len(), xk.ErrMsgTooBig)
	}
	maxFrag := p.cfg.MaxPacket - HeaderLen
	if m.Len() <= maxFrag {
		return s.pushOne(m)
	}
	numFrags := fragmask.Count(m.Len(), maxFrag)
	if numFrags > fragmask.Max {
		return fmt.Errorf("%s: %d fragments (max %d): %w", p.Name(), numFrags, fragmask.Max, xk.ErrMsgTooBig)
	}

	s.mu.Lock()
	seq := s.nextSeq.Add(1)
	s.holdLocked(sentMsg{seq: seq, numFrags: numFrags, m: m, expires: p.cfg.Clock.Now().Add(p.cfg.SendHold)})
	s.armSweepLocked()
	s.mu.Unlock()

	p.ctr.messagesSent.Add(1)
	p.ctr.fragmentsSent.Add(int64(numFrags))

	var c msg.Cutter
	c.Reset(numFrags)
	for i := 0; i < numFrags; i++ {
		if err := s.pushFragment(&c, m, seq, numFrags, i); err != nil {
			return err
		}
	}
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "push seq=%d frags=%d len=%d to %s", seq, numFrags, m.Len(), s.remote)
	}
	return nil
}

// pushFragment transmits fragment i of the held message m: cut through c,
// framed and pushed, reading m and leaving it as it was.
func (s *session) pushFragment(c *msg.Cutter, m *msg.Msg, seq uint32, numFrags, i int) error {
	maxFrag := s.p.cfg.MaxPacket - HeaderLen
	off := i * maxFrag
	f, err := c.Fragment(m, off, min(m.Len()-off, maxFrag), msg.DefaultLeader)
	if err != nil {
		return err
	}
	s.pushHeader(f, seq, uint16(numFrags), 1<<i)
	return s.Down(0).Push(f)
}

// pushOne is the one-fragment path of Push: m, framed in place, goes down
// itself, or a cut of it with a fresh leader if m lacks the header room.
func (s *session) pushOne(m *msg.Msg) error {
	if !xk.RoomInPlace(m, HeaderLen) {
		f, err := m.Fragment(0, m.Len(), msg.DefaultLeader)
		if err != nil {
			return err
		}
		m = f
	}
	p := s.p
	seq := s.nextSeq.Add(1)
	n := m.Len()
	s.pushHeader(m, seq, 1, 1)
	p.ctr.messagesSent.Add(1)
	p.ctr.fragmentsSent.Add(1)
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "push seq=%d frags=1 len=%d to %s", seq, n, s.remote)
	}
	return s.Down(0).Push(m)
}

// pushHeader frames f as fragment fragMask of numFrags of message seq.
func (s *session) pushHeader(f *msg.Msg, seq uint32, numFrags, fragMask uint16) {
	h := header{
		typ:      typeData,
		clntHost: s.p.local,
		srvrHost: s.remote,
		protoNum: uint32(s.proto),
		seq:      seq,
		numFrags: numFrags,
		fragMask: fragMask,
		length:   uint16(f.Len()),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	f.MustPush(hb[:])
}

// holdLocked appends sm to the send hold. A full slice whose head has
// passed half of it is compacted in place first, so the hold grows only
// when at least half of it is live. Caller holds s.mu.
func (s *session) holdLocked(sm sentMsg) {
	if len(s.sent) == cap(s.sent) && s.head > 0 && s.head >= len(s.sent)/2 {
		n := copy(s.sent, s.sent[s.head:])
		clear(s.sent[n:])
		s.sent, s.head = s.sent[:n], 0
	}
	s.sent = append(s.sent, sm)
}

// heldLocked finds the held message numbered seq, comparing serial
// numbers so a wrap of the counter keeps the order. Caller holds s.mu.
func (s *session) heldLocked(seq uint32) (sentMsg, bool) {
	live := s.sent[s.head:]
	i, ok := slices.BinarySearchFunc(live, seq, func(sm sentMsg, seq uint32) int {
		return int(int32(sm.seq - seq))
	})
	if !ok {
		return sentMsg{}, false
	}
	return live[i], true
}

// armSweepLocked schedules the expiry sweep if none is pending. Caller
// holds s.mu.
func (s *session) armSweepLocked() {
	if s.sweeping {
		return
	}
	s.sweeping = true
	d := s.p.cfg.SendHold/2 + time.Millisecond
	if s.sweep == nil {
		s.sweep = s.p.cfg.Clock.Schedule(d, s.sweepExpired)
		return
	}
	s.sweep.Reset(d)
}

// sweepExpired is the sweep event's handler: it pops the held messages
// whose hold has passed off the head of the hold, and re-arms while any
// remain.
func (s *session) sweepExpired() {
	now := s.p.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sweeping {
		return // Close got in between the firing and the lock
	}
	for s.head < len(s.sent) && !s.sent[s.head].expires.After(now) {
		s.sent[s.head] = sentMsg{}
		s.head++
	}
	s.sweeping = false
	if s.head < len(s.sent) {
		s.armSweepLocked()
	}
}

// receive handles one incoming packet for this session.
func (s *session) receive(h header, m *msg.Msg, lls xk.Session) error {
	switch h.typ {
	case typeData:
		return s.receiveData(h, m)
	case typeResend:
		return s.receiveResendRequest(h)
	default:
		return fmt.Errorf("%s: type %d: %w", s.p.Name(), h.typ, xk.ErrBadHeader)
	}
}

// receiveData folds a data fragment into the collection for its sequence
// number, delivering upward when complete. Missing fragments are chased
// with resend requests on the gap timer; after GapRetries the partial
// message is abandoned — FRAGMENT does not guarantee delivery.
func (s *session) receiveData(h header, m *msg.Msg) error {
	p := s.p
	p.ctr.fragmentsReceived.Add(1)

	numFrags := h.numFrags
	if numFrags == 0 {
		numFrags = 1
	}
	if numFrags > fragmask.Max {
		// More fragments than mask bits: no such message can complete.
		return fmt.Errorf("%s: %d fragments (max %d): %w", p.Name(), numFrags, fragmask.Max, xk.ErrBadHeader)
	}
	idx := fragmask.Index(h.fragMask)
	if idx < 0 || idx >= int(numFrags) {
		return fmt.Errorf("%s: frag mask %#04x of %d: %w", p.Name(), h.fragMask, numFrags, xk.ErrBadHeader)
	}

	// A complete message in one fragment: nothing to collect, so it never
	// enters the collection map (which kept no duplicate filter for it
	// either — the entry was created and deleted under one lock hold).
	// With no collection live there is none it could contradict, and it is
	// delivered without the lock; a collection that starts concurrently is
	// ordered after this frame.
	if numFrags == 1 && s.collecting.Load() == 0 {
		return s.deliver(h.seq, m)
	}

	s.mu.Lock()
	r := s.rcv[h.seq]
	if r == nil && numFrags == 1 {
		s.mu.Unlock()
		return s.deliver(h.seq, m)
	}
	if r == nil {
		r = s.newRcvLocked(h.seq, numFrags)
		s.rcv[h.seq] = r
		s.collecting.Add(1)
		now := p.cfg.Clock.Now()
		r.due = now.Add(p.cfg.Retry.Interval(0, p.cfg.GapTimeout))
		s.armGapLocked(r.due, now)
	} else if numFrags != r.numFrags {
		// The collection was started by the first fragment's claim; a
		// frame asserting a different count for the same sequence is
		// corrupt.
		s.mu.Unlock()
		return fmt.Errorf("%s: seq %d claims %d frags, collection has %d: %w",
			p.Name(), h.seq, numFrags, r.numFrags, xk.ErrBadHeader)
	}
	if r.mask&h.fragMask != 0 {
		p.ctr.duplicateFragments.Add(1)
		s.mu.Unlock()
		return nil
	}
	r.mask |= h.fragMask
	r.frags[idx] = m
	if r.mask != fragmask.Full(numFrags) {
		s.mu.Unlock()
		return nil
	}
	s.forgetLocked(h.seq)
	// The message is its first fragment with the others joined on; a
	// received fragment is held by this session and nothing else.
	full := r.frags[0]
	full.JoinAll(r.frags[1:numFrags])
	s.recycleLocked(r)
	s.mu.Unlock()
	return s.deliver(h.seq, full)
}

// forgetLocked ends the collection of message seq. Caller holds s.mu.
func (s *session) forgetLocked(seq uint32) {
	delete(s.rcv, seq)
	s.collecting.Add(-1)
}

// newRcvLocked returns a record to collect message seq in, off the free
// list if it has one. Caller holds s.mu.
func (s *session) newRcvLocked(seq uint32, numFrags uint16) *rcvMsg {
	n := len(s.free) - 1
	if n < 0 {
		return &rcvMsg{seq: seq, numFrags: numFrags}
	}
	r := s.free[n]
	s.free = s.free[:n]
	r.seq, r.numFrags = seq, numFrags
	return r
}

// recycleLocked retires the record of a message that completed or was
// abandoned. Nothing refers to a record once it is out of the collection
// map — the gap event finds records by due in the map — so it goes
// straight back to the free list. Caller holds s.mu.
func (s *session) recycleLocked(r *rcvMsg) {
	if len(s.free) < maxFreeRecords {
		*r = rcvMsg{}
		s.free = append(s.free, r)
	}
}

// deliver hands a complete message to the protocol above.
func (s *session) deliver(seq uint32, full *msg.Msg) error {
	p := s.p
	p.ctr.messagesDelivered.Add(1)
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "deliver seq=%d len=%d from %s", seq, full.Len(), s.remote)
	}
	up := s.Up()
	if up == nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrNoSession)
	}
	return up.Demux(s, full)
}

// armGapLocked makes the gap event fire by at: it is re-armed only if it
// is idle or armed for later. Caller holds s.mu.
func (s *session) armGapLocked(at, now time.Time) {
	if !s.gapAt.IsZero() && !s.gapAt.After(at) {
		return
	}
	s.gapAt = at
	if s.gap == nil {
		s.gap = s.p.cfg.Clock.Schedule(at.Sub(now), s.chase)
		return
	}
	s.gap.Reset(at.Sub(now))
}

// chaseReq is what the gap event's handler does for one collection whose
// due has passed, decided under the lock and carried out after it.
type chaseReq struct {
	seq            uint32
	mask, numFrags uint16
	abandon        bool
}

// chase is the gap event's handler. Every collection whose due has
// passed is asked for again — the peer is sent the mask it has — or,
// after GapRetries requests, abandoned; the event is then re-armed for
// the earliest due left, or goes idle when no collection is open. The
// requests go out in sequence order, so a run on a fake clock puts the
// same frames on the wire every time.
func (s *session) chase() {
	p := s.p
	now := p.cfg.Clock.Now()
	s.mu.Lock()
	if s.gapAt.IsZero() {
		s.mu.Unlock()
		return // Close got in between the firing and the lock
	}
	s.gapAt = time.Time{}
	var reqs []chaseReq
	var next time.Time
	for seq, r := range s.rcv {
		if !r.due.After(now) {
			r.retries++
			reqs = append(reqs, chaseReq{seq, r.mask, r.numFrags, r.retries > p.cfg.GapRetries})
			if r.retries > p.cfg.GapRetries {
				s.forgetLocked(seq)
				s.recycleLocked(r)
				continue
			}
			r.due = now.Add(p.cfg.Retry.Interval(r.retries, p.cfg.GapTimeout))
		}
		if next.IsZero() || r.due.Before(next) {
			next = r.due
		}
	}
	if !next.IsZero() {
		s.armGapLocked(next, now)
	}
	s.mu.Unlock()

	slices.SortFunc(reqs, func(a, b chaseReq) int { return int(int32(a.seq - b.seq)) })
	for _, c := range reqs {
		if c.abandon {
			p.ctr.messagesAbandoned.Add(1)
			trace.Printf(trace.Events, p.Name(), "abandon seq=%d from %s (mask %#04x of %d)", c.seq, s.remote, c.mask, c.numFrags)
			continue
		}
		p.ctr.resendRequestsSent.Add(1)
		trace.Printf(trace.Events, p.Name(), "request missing seq=%d have=%#04x of %d from %s", c.seq, c.mask, c.numFrags, s.remote)
		if err := s.sendResendRequest(c.seq, c.mask, c.numFrags); err != nil {
			trace.Printf(trace.Events, p.Name(), "resend request failed: %v", err)
		}
	}
}

// sendResendRequest asks the peer for the fragments of seq we do not
// have; frag_mask carries the mask we do have.
func (s *session) sendResendRequest(seq uint32, have uint16, numFrags uint16) error {
	h := header{
		typ:      typeResend,
		clntHost: s.p.local,
		srvrHost: s.remote,
		protoNum: uint32(s.proto),
		seq:      seq,
		numFrags: numFrags,
		fragMask: have,
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	return s.Down(0).Push(m)
}

// receiveResendRequest retransmits the fragments of h.seq that the peer
// reports missing, if the message is still held. A discarded message is
// silently ignored: persistence, not reliability.
func (s *session) receiveResendRequest(h header) error {
	p := s.p
	s.mu.Lock()
	sm, held := s.heldLocked(h.seq)
	s.mu.Unlock()
	if !held {
		p.ctr.resendsExpired.Add(1)
		trace.Printf(trace.Events, p.Name(), "resend request for discarded seq=%d from %s", h.seq, s.remote)
		return nil
	}
	p.ctr.resendsHonored.Add(1)
	full := fragmask.Full(uint16(sm.numFrags))
	var c msg.Cutter
	c.Reset(bits.OnesCount16(full &^ h.fragMask))
	for i := 0; i < sm.numFrags; i++ {
		if h.fragMask&(1<<i) != 0 {
			continue // the peer has this one
		}
		if err := s.pushFragment(&c, sm.m, h.seq, sm.numFrags, i); err != nil {
			return err
		}
	}
	return nil
}

// Pop is unused: receive dispatches through the protocol's Demux.
func (s *session) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters, delegating the rest downward.
func (s *session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.peerHost, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	case xk.CtlGetMTU:
		return s.p.cfg.MaxMsg, nil
	case xk.CtlGetOptPacket:
		// What fits in a single fragment: the threshold CHANNEL's
		// step-function timeout tests against.
		return s.p.cfg.MaxPacket - HeaderLen, nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// Close releases the caller's hold. The last one unbinds the session,
// drops the hold and the collections under the lock and cancels the two
// events after it (a handler that fires in between finds its event
// disowned and returns), then closes the session below.
func (s *session) Close() error {
	var kb pmap.Key
	if !s.p.active.Release(key(&kb, s.proto, s.remote), s) {
		return nil
	}
	s.MarkClosed()
	s.mu.Lock()
	s.sent, s.head = nil, 0
	s.sweeping, s.gapAt = false, time.Time{}
	for seq := range s.rcv {
		s.forgetLocked(seq)
	}
	s.free = nil
	sweep, gap := s.sweep, s.gap
	s.mu.Unlock()
	sweep.Cancel()
	gap.Cancel()
	if d := s.Down(0); d != nil {
		return d.Close()
	}
	return nil
}
