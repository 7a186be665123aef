package fragment

import (
	"fmt"
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
// sends, receives, honours resend requests, and issues them.
type session struct {
	xk.BaseSession
	p      *Protocol
	proto  ip.ProtoNum
	remote xk.IPAddr
	// peerHost is remote boxed once at open: the layer above asks for it
	// through Control on every message, and boxing per answer would
	// allocate per message.
	peerHost any

	// collecting is len(rcv), readable without mu: while it is zero no
	// collection exists for a whole-message frame to contradict, so the
	// one-fragment receive path takes no lock. Written under mu, beside
	// every insert into and delete from rcv.
	collecting atomic.Int32

	// nextSeq numbers the messages this session sends; an atomic add, so
	// a send that holds nothing (one fragment) takes no lock.
	nextSeq atomic.Uint32

	mu   sync.Mutex
	sent map[uint32]sentMsg
	rcv  map[uint32]*rcvMsg
	// free keeps up to maxFreeRecords collection records between messages,
	// gap event and all: a collection in a steady stream allocates nothing.
	free []*rcvMsg
	// sweep is the periodic discard of expired saved messages: one event
	// per session, created at the first hold and re-armed from then on,
	// so a sweep costs no allocation. sweeping says an arm is pending.
	sweep    *event.Event
	sweeping bool
}

const maxFreeRecords = 8

// sentMsg is a transmitted message held for resend requests until the
// hold window passes: the one message Push was given, from which every
// transmission of a fragment, first or resent, is cut as it is sent. A
// held message is immutable, so the send loop and any number of resends
// read it concurrently. Expiry is one periodic sweep per session, not one
// timer per message, so a saved message lives between SendHold and about
// 1.5×SendHold — the paper requires only that the sender eventually
// "discards the message when the timer expires".
type sentMsg struct {
	m        *msg.Msg
	numFrags int
	expires  time.Time
}

// rcvMsg collects an incoming message. The record owns its gap event,
// created once and re-armed for every chase and every message the record
// serves; the handler reads seq from the record (see recycleLocked).
type rcvMsg struct {
	seq      uint32
	numFrags uint16
	mask     uint16
	retries  int
	frags    [fragmask.Max]*msg.Msg
	gap      *event.Event
}

func newSession(p *Protocol, hlp xk.Protocol, proto ip.ProtoNum, remote xk.IPAddr, lls xk.Session) *session {
	s := &session{
		p:        p,
		proto:    proto,
		remote:   remote,
		peerHost: remote,
		sent:     make(map[uint32]sentMsg),
		rcv:      make(map[uint32]*rcvMsg),
	}
	s.InitSession(p, hlp, lls)
	return s
}

// Push sends m as one FRAGMENT message. Push consumes m (the ownership
// rule of DESIGN.md: a layer that must keep a message clones it).
//
// A message that fits one packet is sent as it is: the header goes onto
// m in place and m itself goes down. It is not held for resend requests,
// because none can arrive — a receiver chases missing fragments only of
// a message that has more than one — so it costs no hold record and no
// sweep timer. Anything longer (or a message without the header room) is
// held as it is, under the send-hold window, and each fragment is cut
// from it as it is sent.
func (s *session) Push(m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	p := s.p
	if m.Len() > p.cfg.MaxMsg {
		return fmt.Errorf("%s: %d bytes: %w", p.Name(), m.Len(), xk.ErrMsgTooBig)
	}
	maxFrag := p.cfg.MaxPacket - HeaderLen
	if m.Len() <= maxFrag && xk.RoomInPlace(m, HeaderLen) {
		return s.pushOne(m)
	}
	numFrags := fragmask.Count(m.Len(), maxFrag)
	if numFrags > fragmask.Max {
		return fmt.Errorf("%s: %d fragments (max %d): %w", p.Name(), numFrags, fragmask.Max, xk.ErrMsgTooBig)
	}

	seq := s.nextSeq.Add(1)
	s.mu.Lock()
	s.sent[seq] = sentMsg{m: m, numFrags: numFrags, expires: p.cfg.Clock.Now().Add(p.cfg.SendHold)}
	s.armSweepLocked()
	s.mu.Unlock()

	p.ctr.messagesSent.Add(1)
	p.ctr.fragmentsSent.Add(int64(numFrags))

	for i := 0; i < numFrags; i++ {
		if err := s.pushFragment(m, seq, numFrags, i); err != nil {
			return err
		}
	}
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "push seq=%d frags=%d len=%d to %s", seq, numFrags, m.Len(), s.remote)
	}
	return nil
}

// pushFragment transmits fragment i of the held message m: cut, framed
// and pushed, reading m and leaving it as it was.
func (s *session) pushFragment(m *msg.Msg, seq uint32, numFrags, i int) error {
	maxFrag := s.p.cfg.MaxPacket - HeaderLen
	off := i * maxFrag
	f, err := m.Fragment(off, min(m.Len()-off, maxFrag), msg.DefaultLeader)
	if err != nil {
		return err
	}
	s.pushHeader(f, seq, uint16(numFrags), 1<<i)
	return s.Down(0).Push(f)
}

// pushOne is the one-fragment path of Push.
func (s *session) pushOne(m *msg.Msg) error {
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

// sweepExpired is the sweep event's handler: it discards the saved
// messages whose hold has passed and re-arms while any remain.
func (s *session) sweepExpired() {
	now := s.p.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sweeping {
		return // Close got in between the firing and the lock
	}
	for seq, sm := range s.sent {
		if !sm.expires.After(now) {
			delete(s.sent, seq)
		}
	}
	s.sweeping = false
	if len(s.sent) > 0 {
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
		s.armGapTimerLocked(r)
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

// recycleLocked retires the record of a completed message. It is reused
// only if Cancel reports that it prevented the gap event's firing: a
// handler already on its way must find the message it was armed for
// gone, never the record's next one. Caller holds s.mu.
func (s *session) recycleLocked(r *rcvMsg) {
	if !r.gap.Cancel() || len(s.free) == maxFreeRecords {
		return
	}
	*r = rcvMsg{gap: r.gap}
	s.free = append(s.free, r)
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

// armGapTimerLocked schedules the missing-fragment chase for r's
// message; the retry policy spaces successive chases. Caller holds s.mu.
func (s *session) armGapTimerLocked(r *rcvMsg) {
	d := s.p.cfg.Retry.Interval(r.retries, s.p.cfg.GapTimeout)
	if r.gap == nil {
		r.gap = s.p.cfg.Clock.Schedule(d, func() { s.chase(r) })
		return
	}
	r.gap.Reset(d)
}

// chase is the gap event's handler: it asks the peer for the fragments
// still missing, or abandons the message after GapRetries requests.
func (s *session) chase(r *rcvMsg) {
	p := s.p
	s.mu.Lock()
	seq := r.seq
	if s.rcv[seq] != r {
		s.mu.Unlock()
		return
	}
	r.retries++
	if r.retries > p.cfg.GapRetries {
		s.forgetLocked(seq)
		s.mu.Unlock()
		p.ctr.messagesAbandoned.Add(1)
		trace.Printf(trace.Events, p.Name(), "abandon seq=%d from %s (mask %#04x of %d)", seq, s.remote, r.mask, r.numFrags)
		return
	}
	mask, numFrags := r.mask, r.numFrags
	s.armGapTimerLocked(r)
	s.mu.Unlock()

	p.ctr.resendRequestsSent.Add(1)
	trace.Printf(trace.Events, p.Name(), "request missing seq=%d have=%#04x of %d from %s", seq, mask, numFrags, s.remote)
	if err := s.sendResendRequest(seq, mask, numFrags); err != nil {
		trace.Printf(trace.Events, p.Name(), "resend request failed: %v", err)
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
	sm, held := s.sent[h.seq]
	s.mu.Unlock()
	if !held {
		p.ctr.resendsExpired.Add(1)
		trace.Printf(trace.Events, p.Name(), "resend request for discarded seq=%d from %s", h.seq, s.remote)
		return nil
	}
	p.ctr.resendsHonored.Add(1)
	for i := 0; i < sm.numFrags; i++ {
		if h.fragMask&(1<<i) != 0 {
			continue // the peer has this one
		}
		if err := s.pushFragment(sm.m, h.seq, sm.numFrags, i); err != nil {
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

// Close unbinds the session.
func (s *session) Close() error {
	if !s.MarkClosed() {
		return nil
	}
	var kb pmap.Key
	s.p.active.Unbind(key(&kb, s.proto, s.remote))
	s.mu.Lock()
	clear(s.sent)
	if s.sweeping {
		//xk:allow locksafety — Cancel is a non-blocking flag; it never waits for a running handler
		s.sweep.Cancel()
		s.sweeping = false
	}
	for seq, r := range s.rcv {
		//xk:allow locksafety — Cancel is a non-blocking flag; it never waits for a running handler
		r.gap.Cancel()
		s.forgetLocked(seq)
	}
	s.free = nil
	s.mu.Unlock()
	if d := s.Down(0); d != nil {
		return d.Close()
	}
	return nil
}
