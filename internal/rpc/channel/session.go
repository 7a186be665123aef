package channel

import (
	"fmt"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Session is the client end of one channel: "A high-level protocol
// pushes a message into the session (channel) and a reply message is
// returned" (§3.2). One request is outstanding at a time; concurrency
// comes from SELECT holding several channels.
//
// Because at most one call is outstanding, the state a call needs — the
// reply slot and the retransmission timeout — belongs to the channel, not
// to the call: it is set up once and re-armed per call (the LRPC A-stack
// idea: per-binding, not per-call).
type Session struct {
	xk.BaseSession
	p      *Protocol
	proto  ip.ProtoNum
	id     uint16
	remote xk.IPAddr
	// optPacket is the lower layer's single-packet size, the threshold
	// of the step-function timeout; a constant of the binding.
	optPacket int

	mu     sync.Mutex
	seq    uint32
	active bool
	acked  bool

	// replyCh carries the reply of the call in progress: filled by
	// receive under mu, only for the current seq; drained under mu when
	// the next call starts.
	replyCh chan result
	timeout *event.Timeout

	// held is the request of the call in progress, kept for
	// retransmission: a copy of the message by value, in the channel's own
	// storage, filled before the first transmission and cleared when Call
	// returns. Only Call touches it, and only while it owns the channel
	// (active). Last, so the fields above share a cache line.
	held msg.Msg
}

type result struct {
	m   *msg.Msg
	err error
}

func newSession(p *Protocol, hlp xk.Protocol, proto ip.ProtoNum, id uint16, remote xk.IPAddr, lls xk.Session) *Session {
	s := &Session{
		p: p, proto: proto, id: id, remote: remote,
		replyCh: make(chan result, 1),
		timeout: event.NewTimeout(p.cfg.Clock),
	}
	s.InitSession(p, hlp, lls)
	if v, err := lls.Control(xk.CtlGetOptPacket, nil); err == nil {
		s.optPacket, _ = v.(int)
	}
	return s
}

// ID reports the channel number.
func (s *Session) ID() uint16 { return s.id }

// Remote reports the peer host.
func (s *Session) Remote() xk.IPAddr { return s.remote }

// Call sends the request and blocks for the reply, retransmitting on the
// step-function timeout. Call consumes m: the first transmission pushes
// the header onto m itself, and only a retransmission — which needs the
// request again — clones it, from the copy the channel holds.
func (s *Session) Call(m *msg.Msg) (*msg.Msg, error) {
	if s.Closed() {
		return nil, xk.ErrClosed
	}
	p := s.p
	p.ctr.calls.Add(1)
	boot := p.bootID.Load()

	s.mu.Lock()
	if s.active {
		s.mu.Unlock()
		return nil, fmt.Errorf("%s: chan %d: %w", p.Name(), s.id, ErrChannelBusy)
	}
	s.seq++
	seq := s.seq
	s.active = true
	s.acked = false
	// A duplicate reply to the previous call may have landed after that
	// call took its own; from here on receive accepts only seq.
	select {
	case <-s.replyCh:
	default:
	}
	s.mu.Unlock()
	p.ctr.callsInFlight.Add(1)
	retransCounted := false
	// CHANNEL keeps the request for retransmission, so it is the layer
	// that copies: the layers below consume what they are pushed.
	m.CopyInto(&s.held)
	defer func() {
		s.held = msg.Msg{} // a finished call pins no payload
		s.mu.Lock()
		s.active = false
		s.mu.Unlock()
		p.ctr.callsInFlight.Add(-1)
		if retransCounted {
			p.ctr.retransInFlight.Add(-1)
		}
	}()

	base := s.stepTimeout(m.Len())
	lls := s.Down(0)
	// The epoch hint is snapshotted once per call: every transmission of
	// this request names the same server incarnation, so a server that
	// reboots mid-call rejects the retransmissions rather than executing
	// the request a second time in its new life.
	hint := uint16(p.PeerBootID(s.remote))

	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		h := header{
			flags:    flagRequest,
			channel:  s.id,
			protoNum: uint32(s.proto),
			seq:      seq,
			errCode:  hint,
			bootID:   boot,
		}
		skip := false // only a retransmission can have been acked
		if attempt > 0 {
			h.flags |= flagPleaseAck
			p.ctr.retransmits.Add(1)
			if !retransCounted {
				retransCounted = true
				p.ctr.retransInFlight.Add(1)
			}
			trace.Printf(trace.Events, p.Name(), "retransmit chan=%d seq=%d attempt=%d", s.id, seq, attempt)
			s.mu.Lock()
			skip = s.acked // the server said it is working; don't resend
			s.mu.Unlock()
		}
		if !skip {
			var hb [HeaderLen]byte
			h.encode(hb[:])
			// Each (re)transmission is an independent message to
			// the layer below: FRAGMENT assigns it a new sequence
			// number of its own.
			out := m
			if attempt > 0 {
				out = s.held.Clone()
			}
			out.MustPush(hb[:])
			if err := lls.Push(out); err != nil {
				return nil, err
			}
		}

		s.timeout.Arm(p.cfg.Retry.Interval(attempt, base))
		select {
		case r := <-s.replyCh:
			s.timeout.Disarm()
			return r.m, r.err
		case <-s.timeout.C:
			s.timeout.Expired()
		}
	}
	return nil, fmt.Errorf("%s: call chan=%d seq=%d to %s: %w", p.Name(), s.id, seq, s.remote, xk.ErrTimeout)
}

// TimeoutFor reports the step-function timeout Call would use for a
// request of msgLen bytes; exposed for introspection and tests.
func (s *Session) TimeoutFor(msgLen int) (time.Duration, error) {
	return s.stepTimeout(msgLen), nil
}

// stepTimeout implements the paper's step function: "for single fragment
// messages CHANNEL's timeout is small, while for multi-fragment messages
// CHANNEL must wait long enough to be sure that the fragmentation layer
// is not in the middle of transmitting the message."
func (s *Session) stepTimeout(msgLen int) time.Duration {
	p := s.p
	interval := p.cfg.RetransmitBase
	optPacket := s.optPacket
	if optPacket > 0 && msgLen+HeaderLen > optPacket {
		frags := (msgLen + HeaderLen + optPacket - 1) / optPacket
		interval += time.Duration(frags) * p.cfg.RetransmitPerFrag
	}
	return interval
}

// receive handles a reply or ack for this channel.
func (s *Session) receive(h header, m *msg.Msg) error {
	p := s.p
	// Every reply and ack teaches the client the server's current
	// incarnation; the next call's epoch hint names it.
	p.notePeerBoot(s.remote, h.bootID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active || h.seq != s.seq {
		trace.Printf(trace.Events, p.Name(), "drop stale chan=%d seq=%d (current %d)", s.id, h.seq, s.seq)
		return nil
	}
	if h.flags&flagAck != 0 {
		p.ctr.acksReceived.Add(1)
		s.acked = true
		return nil
	}
	var r result
	switch h.errCode {
	case errOK:
		r.m = m
	case errRebooted:
		r.err = &PeerRebootedError{Host: s.remote, BootID: h.bootID}
		p.ctr.peerReboots.Add(1)
	default:
		r.err = &RemoteError{Msg: string(m.Bytes())}
		p.ctr.remoteErrors.Add(1)
	}
	select {
	case s.replyCh <- r:
	default:
	}
	return nil
}

// Push satisfies the uniform interface: a push is a call whose reply is
// discarded, which is exactly the "reliable datagram protocol on top of
// CHANNEL" the paper calls trivial (§3.2).
func (s *Session) Push(m *msg.Msg) error {
	_, err := s.Call(m)
	return err
}

// Pop is unused; the protocol's Demux consumes incoming messages.
func (s *Session) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters, delegating the rest downward.
func (s *Session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.remote, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	case xk.CtlGetMTU:
		v, err := s.BaseSession.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// Close unbinds the channel.
func (s *Session) Close() error {
	if !s.MarkClosed() {
		return nil
	}
	var kb pmap.Key
	s.p.clients.Unbind(key(&kb, s.proto, s.id, s.remote))
	return nil
}

// srvKey identifies a peer's channel at the server.
type srvKey struct {
	peer    xk.IPAddr
	proto   ip.ProtoNum
	channel uint16
}

// ledgerKey is the execution-ledger name for the same channel.
func (k srvKey) ledgerKey() ledger.Key {
	return ledger.Key{Peer: k.peer, Proto: uint32(k.proto), Channel: k.channel}
}

// srvChan is the server-side at-most-once state for one channel. Its
// own mutex makes the at-most-once decision atomic per channel without
// serializing unrelated channels on a protocol-wide lock; the protocol
// srvMu is held only to look the srvChan up. The saved reply itself
// lives in the execution ledger, keyed by the same channel — what
// stays here is only the duplicate filter.
type srvChan struct {
	mu        sync.Mutex
	bootID    uint32
	lastSeq   uint32
	executing bool
	session   *ServerSession
}

// ServerSession is the server end of a channel: the session the
// high-level protocol's handler pushes the reply through. Push sends the
// reply for the request most recently delivered on this channel.
type ServerSession struct {
	xk.BaseSession
	p     *Protocol
	key   srvKey
	proto ip.ProtoNum
	sc    *srvChan // the channel state this session replies through (1:1)

	mu         sync.Mutex
	pendingSeq uint32
	pendingOK  bool
}

// Peer reports the client host.
func (s *ServerSession) Peer() xk.IPAddr { return s.key.peer }

// Push sends the reply to the pending request.
func (s *ServerSession) Push(m *msg.Msg) error { return s.reply(m, errOK) }

// PushError reports a failure for the pending request; the message
// payload carries the error text.
func (s *ServerSession) PushError(text string) error {
	return s.reply(msg.New([]byte(text)), errRemote)
}

func (s *ServerSession) reply(m *msg.Msg, code uint16) error {
	p := s.p
	s.mu.Lock()
	if !s.pendingOK {
		s.mu.Unlock()
		return fmt.Errorf("%s: no pending request on chan %d", p.Name(), s.key.channel)
	}
	seq := s.pendingSeq
	s.pendingOK = false
	s.mu.Unlock()

	h := header{
		flags:    flagReply,
		channel:  s.key.channel,
		protoNum: uint32(s.proto),
		seq:      seq,
		errCode:  code,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	// Push consumes m: the header goes onto the handler's reply itself.
	m.MustPush(hb[:])

	// Write-ahead: the executed request and its framed reply go into
	// the ledger before the reply leaves this host, so no reply is
	// ever on the wire without a record a recovered incarnation can
	// replay. A record failure fails the reply (the client will
	// retransmit) rather than risking a duplicate execution later.
	sc := s.sc
	sc.mu.Lock()
	sc.executing = false
	//xk:allow locksafety — write-ahead by design: Record must commit under sc.mu before the reply leaves; its fsync Schedule only enqueues, the sync handler re-locks on a later dispatch
	err := p.cfg.Ledger.Record(s.key.ledgerKey(), ledger.Entry{
		ClientBoot: sc.bootID,
		Seq:        seq,
		Reply:      ledger.EncodeMsgs(m),
	})
	sc.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%s: ledger record chan=%d seq=%d: %w", p.Name(), s.key.channel, seq, err)
	}

	return s.Down(0).Push(m)
}

// Pop is unused on server sessions.
func (s *ServerSession) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters, delegating the rest downward.
func (s *ServerSession) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.key.peer, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// serveRequest is the server half of the implicit-ack algorithm,
// structurally the same as monolithic Sprite RPC's but without any
// fragmentation bookkeeping — that is FRAGMENT's job now.
func (p *Protocol) serveRequest(h header, peer xk.IPAddr, m *msg.Msg, lls xk.Session) error {
	if h.protoNum > 0xff {
		return fmt.Errorf("%s: protocol number %d: %w", p.Name(), h.protoNum, xk.ErrBadHeader)
	}
	proto := ip.ProtoNum(h.protoNum)
	k := srvKey{peer: peer, proto: proto, channel: h.channel}

	hlp := (*p.enables.Load())[proto]
	if hlp == nil {
		return fmt.Errorf("%s: proto %d: %w", p.Name(), proto, xk.ErrNoSession)
	}
	// A non-zero epoch hint naming another incarnation means the request
	// was first sent to a previous life of this server (which may have
	// executed it before crashing). The execution ledger remembers: if
	// the previous incarnation recorded exactly this request, answer
	// with its cached reply byte-for-byte — the crash stays invisible
	// to this call. Only an unrecorded request is refused (it may have
	// executed inside the ledger's unsynced window), keeping the
	// conservative at-most-once bound. Checked before any per-chan
	// state so a rejected request leaves no trace.
	lk := k.ledgerKey()
	boot := p.bootID.Load()
	if h.errCode != 0 && h.errCode != uint16(boot) {
		if e, ok := p.cfg.Ledger.Lookup(lk); ok && e.ClientBoot == h.bootID && e.Seq == h.seq {
			p.ctr.ledgerReplays.Add(1)
			p.ctr.replayedReplies.Add(1)
			trace.Printf(trace.Events, p.Name(), "ledger replay chan=%d seq=%d to %s (executed before crash)",
				h.channel, h.seq, peer)
			return replayBlob(lls, e.Reply)
		}
		p.ctr.staleEpochRejects.Add(1)
		trace.Printf(trace.Events, p.Name(), "reject stale-epoch chan=%d seq=%d from %s (hint %d, boot %d)",
			h.channel, h.seq, peer, h.errCode, boot)
		return p.sendReject(h, boot, lls)
	}
	p.srvMu.Lock()
	sc := p.servers[k]
	p.srvMu.Unlock()
	newSession := false
	if sc == nil {
		// The recovery seed is consulted only by a request that creates
		// the channel state, so only such a request looks it up — outside
		// srvMu, to keep that lock narrow, then the miss is re-checked.
		seed, haveSeed := p.cfg.Ledger.Lookup(lk)
		p.srvMu.Lock()
		if sc = p.servers[k]; sc == nil {
			sc = &srvChan{bootID: h.bootID}
			// A recovered incarnation resumes the duplicate filter where
			// the old one left off: without this, a replayed ledger entry
			// would look like a "new" request and execute again.
			if haveSeed && seed.ClientBoot == h.bootID {
				sc.lastSeq = seed.Seq
			}
			ss := &ServerSession{p: p, key: k, proto: proto, sc: sc}
			ss.InitSession(p, hlp, lls)
			sc.session = ss
			p.servers[k] = sc
			newSession = true
		}
		p.srvMu.Unlock()
	}

	sc.mu.Lock()
	if sc.bootID != h.bootID {
		trace.Printf(trace.Events, p.Name(), "peer %s rebooted (boot %d -> %d), resetting chan %d",
			peer, sc.bootID, h.bootID, h.channel)
		sc.bootID = h.bootID
		sc.lastSeq = 0
		sc.executing = false
		// The old client incarnation can never legally ask for its
		// reply again — retire the channel's ledger entry.
		//xk:allow locksafety — retire must be ordered with the boot-epoch flip under sc.mu; the fsync Schedule only enqueues
		if err := p.cfg.Ledger.Retire(lk); err != nil {
			trace.Printf(trace.Events, p.Name(), "ledger retire chan=%d: %v", h.channel, err)
		}
	}

	switch {
	case sc.lastSeq != 0 && h.seq < sc.lastSeq:
		p.ctr.duplicateRequests.Add(1)
		sc.mu.Unlock()
		return nil

	case h.seq == sc.lastSeq:
		p.ctr.duplicateRequests.Add(1)
		if sc.executing {
			p.ctr.acksSent.Add(1)
			sc.mu.Unlock()
			return p.sendAck(h, lls)
		}
		if e, ok := p.cfg.Ledger.Lookup(lk); ok && e.ClientBoot == h.bootID && e.Seq == h.seq {
			p.ctr.replayedReplies.Add(1)
			sc.mu.Unlock()
			trace.Printf(trace.Events, p.Name(), "replay reply chan=%d seq=%d to %s", h.channel, h.seq, peer)
			return replayBlob(lls, e.Reply)
		}
		sc.mu.Unlock()
		return nil

	default: // new request — implicitly acks the previous reply, whose
		// ledger entry is overwritten when this one records its own.
		sc.lastSeq = h.seq
		sc.executing = true
		ss := sc.session
		p.ctr.requestsServed.Add(1)
		sc.mu.Unlock()

		ss.mu.Lock()
		ss.pendingSeq = h.seq
		ss.pendingOK = true
		// Replies go back the way the request came; the lower
		// session may differ after a passive re-open.
		ss.SetDown(0, lls)
		ss.mu.Unlock()

		if newSession {
			pps := xk.NewParticipants(
				xk.NewParticipant(proto, ID(h.channel)),
				xk.NewParticipant(peer),
			)
			if err := hlp.OpenDone(p, ss, pps); err != nil {
				return err
			}
		}
		if err := hlp.Demux(ss, m); err != nil {
			// The high-level protocol could not serve it; report
			// through the error field so the client fails fast
			// rather than timing out.
			return ss.PushError(err.Error())
		}
		return nil
	}
}

// replayBlob pushes a ledger-recorded reply back through the lower
// session exactly as it was originally framed — byte-for-byte, old
// boot id and all, so the client completes its call as if the crash
// never happened.
func replayBlob(lls xk.Session, blob []byte) error {
	frames, err := ledger.DecodeFrames(blob)
	if err != nil {
		return err
	}
	for _, fb := range frames {
		if err := lls.Push(msg.New(fb)); err != nil {
			return err
		}
	}
	return nil
}

// sendReject answers a stale-epoch request with errRebooted so the
// client fails its call immediately (and learns the new boot id)
// instead of retransmitting into the void until its timeout.
func (p *Protocol) sendReject(req header, boot uint32, lls xk.Session) error {
	h := header{
		flags:    flagReply,
		channel:  req.channel,
		protoNum: req.protoNum,
		seq:      req.seq,
		errCode:  errRebooted,
		bootID:   boot,
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	return lls.Push(m)
}

// sendAck tells the client its request arrived and is being worked on.
func (p *Protocol) sendAck(req header, lls xk.Session) error {
	h := header{
		flags:    flagAck,
		channel:  req.channel,
		protoNum: req.protoNum,
		seq:      req.seq,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	trace.Printf(trace.Events, p.Name(), "explicit ack chan=%d seq=%d", req.channel, req.seq)
	return lls.Push(m)
}
