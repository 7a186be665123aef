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
	"xkernel/internal/rpc/amo"
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
	call   amo.Call // the call in progress: attempts, acks, schedule

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
	boot := p.host.Boot()
	base := s.stepTimeout(m.Len())

	s.mu.Lock()
	if s.active {
		s.mu.Unlock()
		return nil, fmt.Errorf("%s: chan %d: %w", p.Name(), s.id, ErrChannelBusy)
	}
	s.seq++
	seq := s.seq
	s.active = true
	s.call.Start(1, base, p.cfg.MaxRetries, p.cfg.Retry)
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

	lls := s.Down(0)
	// The epoch hint is snapshotted once per call: every transmission of
	// this request names the same server incarnation, so a server that
	// reboots mid-call rejects the retransmissions rather than executing
	// the request a second time in its new life.
	h := header{
		flags:    flagRequest,
		channel:  s.id,
		protoNum: uint32(s.proto),
		seq:      seq,
		errCode:  uint16(p.host.PeerBoot(s.remote)),
		bootID:   boot,
	}
	for {
		// The request is one fragment, which the call machine sends on
		// every attempt — after a full ack too, as the probe that recovers
		// a reply lost after the ack. Each (re)transmission is an
		// independent message to the layer below: FRAGMENT assigns it a
		// new sequence number of its own.
		if send, pleaseAck := s.call.Send(); send != 0 {
			out := m
			if pleaseAck { // a retransmission, cloned from the held copy
				h.flags |= flagPleaseAck
				out = s.held.Clone()
			}
			var hb [HeaderLen]byte
			h.encode(hb[:])
			out.MustPush(hb[:])
			if err := lls.Push(out); err != nil {
				return nil, err
			}
		}

		s.timeout.Arm(s.call.Wait())
		select {
		case r := <-s.replyCh:
			s.timeout.Disarm()
			return r.m, r.err
		case <-s.timeout.C:
			s.timeout.Expired()
		}
		s.mu.Lock()
		again := s.call.Expire()
		s.mu.Unlock()
		if !again {
			return nil, fmt.Errorf("%s: call chan=%d seq=%d to %s: %w", p.Name(), s.id, seq, s.remote, xk.ErrTimeout)
		}
		p.ctr.retransmits.Add(1)
		if !retransCounted {
			retransCounted = true
			p.ctr.retransInFlight.Add(1)
		}
		trace.Printf(trace.Events, p.Name(), "retransmit chan=%d seq=%d attempt=%d", s.id, seq, s.call.Attempt())
	}
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
	p.host.NotePeerBoot(s.remote, h.bootID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active || h.seq != s.seq {
		trace.Printf(trace.Events, p.Name(), "drop stale chan=%d seq=%d (current %d)", s.id, h.seq, s.seq)
		return nil
	}
	if h.flags&flagAck != 0 {
		p.ctr.acksReceived.Add(1)
		s.call.Ack(1) // the one fragment
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

// ServerSession is the server end of a channel: the session the
// high-level protocol's handler pushes the reply through. Push sends the
// reply for the request most recently delivered on this channel.
type ServerSession struct {
	xk.BaseSession
	p  *Protocol
	ch *amo.Chan // the channel's duplicate filter this session replies through (1:1)

	mu         sync.Mutex
	pendingSeq uint32
	pendingOK  bool
}

// Peer reports the client host.
func (s *ServerSession) Peer() xk.IPAddr { return s.ch.Key().Peer }

// ClientRebooted keeps the session across a client reboot: it is the
// channel's, and the pending request is whichever was delivered last.
func (s *ServerSession) ClientRebooted() {}

// Push sends the reply to the pending request.
func (s *ServerSession) Push(m *msg.Msg) error { return s.reply(m, errOK) }

// PushError reports a failure for the pending request; the message
// payload carries the error text.
func (s *ServerSession) PushError(text string) error {
	return s.reply(msg.New([]byte(text)), errRemote)
}

func (s *ServerSession) reply(m *msg.Msg, code uint16) error {
	p := s.p
	k := s.ch.Key()
	s.mu.Lock()
	if !s.pendingOK {
		s.mu.Unlock()
		return fmt.Errorf("%s: no pending request on chan %d", p.Name(), k.Channel)
	}
	seq := s.pendingSeq
	s.pendingOK = false
	s.mu.Unlock()

	h := header{
		flags:    flagReply,
		channel:  k.Channel,
		protoNum: k.Proto,
		seq:      seq,
		errCode:  code,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	// Push consumes m: the header goes onto the handler's reply itself.
	m.MustPush(hb[:])
	if err := s.ch.Record(seq, ledger.EncodeMsgs(m)); err != nil {
		return fmt.Errorf("%s: ledger record chan=%d seq=%d: %w", p.Name(), k.Channel, seq, err)
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
		return s.Peer(), nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return s.ch.Key().Proto, nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// serveRequest is the server half of the implicit-ack algorithm: the
// at-most-once core's, as monolithic Sprite RPC's is, without any
// fragmentation bookkeeping — that is FRAGMENT's job now.
func (p *Protocol) serveRequest(h header, peer xk.IPAddr, m *msg.Msg, lls xk.Session) error {
	if h.protoNum > 0xff {
		return fmt.Errorf("%s: protocol number %d: %w", p.Name(), h.protoNum, xk.ErrBadHeader)
	}
	proto := ip.ProtoNum(h.protoNum)
	hlp := (*p.enables.Load())[proto]
	if hlp == nil {
		return fmt.Errorf("%s: proto %d: %w", p.Name(), proto, xk.ErrNoSession)
	}
	ch, v, blob := p.host.Admit(amo.Request{
		Key:        ledger.Key{Peer: peer, Proto: h.protoNum, Channel: h.channel},
		Hint:       h.errCode,
		ClientBoot: h.bootID,
		Seq:        h.seq,
	})
	switch v {
	case amo.Reject:
		return p.sendControl(h, flagReply, errRebooted, lls)
	case amo.Replay:
		return amo.ReplayBlob(lls, blob)
	case amo.Ack:
		p.ctr.acksSent.Add(1)
		return p.sendControl(h, flagAck, errOK, lls)
	case amo.Drop:
		return nil
	}
	// New: the channel is locked until Commit. Its session is made by
	// the first request it serves.
	ss, _ := ch.State.(*ServerSession)
	fresh := ss == nil
	if fresh {
		ss = &ServerSession{p: p, ch: ch}
		ss.InitSession(p, hlp, lls)
		ch.State = ss
	}
	ch.Commit(h.seq)

	ss.mu.Lock()
	ss.pendingSeq = h.seq
	ss.pendingOK = true
	// Replies go back the way the request came; the lower session may
	// differ after a passive re-open.
	ss.SetDown(0, lls)
	ss.mu.Unlock()

	if fresh {
		pps := xk.NewParticipants(
			xk.NewParticipant(proto, ID(h.channel)),
			xk.NewParticipant(peer),
		)
		if err := hlp.OpenDone(p, ss, pps); err != nil {
			return err
		}
	}
	if err := hlp.Demux(ss, m); err != nil {
		// The high-level protocol could not serve it; report through the
		// error field so the client fails fast rather than timing out.
		return ss.PushError(err.Error())
	}
	return nil
}

// sendControl answers req with an empty frame: an explicit ack (the
// request arrived and is being worked on), or a reply carrying
// errRebooted, so a stale-epoch client fails its call at once and learns
// the new boot id instead of retransmitting into the void.
func (p *Protocol) sendControl(req header, flags, errCode uint16, lls xk.Session) error {
	h := header{
		flags:    flags,
		channel:  req.channel,
		protoNum: req.protoNum,
		seq:      req.seq,
		errCode:  errCode,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.Empty()
	m.MustPush(hb[:])
	return lls.Push(m)
}
