package channel

import (
	"errors"
	"fmt"
	"time"

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
// Because at most one call is outstanding, the state a call needs
// belongs to the channel: the at-most-once core's call slot.
type Session struct {
	xk.BaseSession
	p      *Protocol
	proto  ip.ProtoNum
	id     uint16
	remote xk.IPAddr
	// optPacket is the lower layer's single-packet size, the threshold
	// of the step-function timeout; a constant of the binding.
	optPacket int

	slot amo.Client
}

func newSession(p *Protocol, hlp xk.Protocol, proto ip.ProtoNum, id uint16, remote xk.IPAddr, lls xk.Session) *Session {
	s := &Session{p: p, proto: proto, id: id, remote: remote}
	s.slot.Init(p.cfg.Clock, nil)
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

	seq, ok := s.slot.Start(1, base, p.cfg.MaxRetries, p.cfg.Retry)
	if !ok {
		return nil, fmt.Errorf("%s: chan %d: %w", p.Name(), s.id, ErrChannelBusy)
	}
	p.ctr.callsInFlight.Add(1)
	retransCounted := false
	// CHANNEL keeps the request for retransmission, so it is the layer
	// that copies: the layers below consume what they are pushed.
	s.slot.Hold(m)
	defer func() {
		s.slot.Finish()
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
		if send, pleaseAck := s.slot.Send(); send != 0 {
			out := m
			if pleaseAck { // a retransmission, cloned from the held copy
				h.flags |= flagPleaseAck
				out = s.slot.Held()
			}
			var hb [HeaderLen]byte
			h.encode(hb[:])
			out.MustPush(hb[:])
			if err := lls.Push(out); err != nil {
				return nil, err
			}
		}

		r, replied, again := s.slot.Wait()
		if replied {
			return r.M, r.Err
		}
		if !again {
			return nil, fmt.Errorf("%s: call chan=%d seq=%d to %s: %w", p.Name(), s.id, seq, s.remote, xk.ErrTimeout)
		}
		p.ctr.retransmits.Add(1)
		if !retransCounted {
			retransCounted = true
			p.ctr.retransInFlight.Add(1)
		}
		trace.Printf(trace.Events, p.Name(), "retransmit chan=%d seq=%d attempt=%d", s.id, seq, s.slot.Attempt())
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

// Close releases the caller's hold; the last one unbinds the channel.
// The FRAGMENT session below stays open: it is the one this host numbers
// its messages to the peer through (DESIGN.md, "always cache open
// sessions").
func (s *Session) Close() error {
	var kb pmap.Key
	if s.p.clients.Release(ClientKey(&kb, s.proto, s.id, s.remote), s) {
		s.MarkClosed()
	}
	return nil
}

// ServerSession is the server end of a channel: its handler's Push
// answers the request the channel executes (one at a time, amo.Chan), or
// is refused with amo.ErrStaleReply.
type ServerSession struct {
	xk.BaseSession
	p  *Protocol
	ch *amo.Chan // the channel's duplicate filter this session replies through (1:1)
}

// Peer reports the client host.
func (s *ServerSession) Peer() xk.IPAddr { return s.ch.Key().Peer }

// ClientRebooted keeps the session: it answers what the channel executes.
func (s *ServerSession) ClientRebooted() {}

// Push sends the reply to the request executing.
func (s *ServerSession) Push(m *msg.Msg) error { return s.reply(s.ch.Captured(), m, errOK) }

// PushError reports a failure for the request executing; the message
// payload carries the error text.
func (s *ServerSession) PushError(text string) error {
	return s.reply(s.ch.Captured(), msg.New([]byte(text)), errRemote)
}

// reply answers request cp, if the channel still awaits it.
func (s *ServerSession) reply(cp amo.Capture, m *msg.Msg, code uint16) error {
	p := s.p
	k := s.ch.Key()
	h := header{
		flags:    flagReply,
		channel:  k.Channel,
		protoNum: k.Proto,
		seq:      cp.Seq,
		errCode:  code,
		bootID:   p.BootID(),
	}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	// Push consumes m: the header goes onto the handler's reply itself.
	m.MustPush(hb[:])
	if err := s.ch.Record(cp, m); err != nil {
		return fmt.Errorf("%s: reply chan=%d seq=%d: %w", p.Name(), k.Channel, cp.Seq, err)
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
	ch, v, replay := p.host.Admit(amo.Request{
		Key:        ledger.Key{Peer: peer, Proto: h.protoNum, Channel: h.channel},
		Hint:       h.errCode,
		ClientBoot: h.bootID,
		Seq:        h.seq,
	})
	switch v {
	case amo.Reject:
		return p.sendControl(h, flagReply, errRebooted, lls)
	case amo.Replay:
		return amo.Resend(lls, replay)
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
	cp := ch.Commit(h.seq)
	// Replies go back the way the request came; the lower session may
	// differ after a passive re-open.
	ss.SetDown(0, lls)

	if fresh {
		pps := xk.NewParticipants(
			xk.NewParticipant(proto, ID(h.channel)),
			xk.NewParticipant(peer),
		)
		if err := hlp.OpenDone(p, ss, pps); err != nil {
			ch.Abort(cp)
			return err
		}
	}
	if err := hlp.Demux(ss, m); err != nil {
		if errors.Is(err, amo.ErrStaleReply) {
			return err // the handler's own reply was refused: nothing more to send
		}
		// The high-level protocol could not serve it; report through the
		// error field so the client fails fast rather than timing out.
		return ss.reply(cp, msg.New([]byte(err.Error())), errRemote)
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
