// Package sunrpc implements the paper's decomposition of Sun RPC (§5,
// "Mix and Match RPCs"): a SUN_SELECT layer that maps
// ⟨program, version, procedure⟩ onto handlers, and a REQUEST_REPLY
// layer with zero-or-more semantics, with the authentication mechanisms
// factored out into the separate auth package as "a library of optional
// protocol layers".
//
// The composition freedom is the point: SUN_SELECT composes over
// REQUEST_REPLY (classic Sun RPC behaviour), over CHANNEL (upgrading to
// at-most-once semantics), and over either of those on top of FRAGMENT
// (persistent bulk transfer) instead of relying on IP fragmentation.
//
// SUN_SELECT keeps a fixed pool of lower sessions per server, as SELECT
// keeps its channels: a chanpool.Pool, typed as Callers at Open, from
// which a call takes the lowest free session and parks only when every
// one is busy.
package sunrpc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// ReqRepHeaderLen is the REQUEST_REPLY header:
// type(1) protocol_num(4) chan(2) xid(4) status(1).
const ReqRepHeaderLen = 12

const (
	rrCall  uint8 = 0
	rrReply uint8 = 1
)

const (
	rrOK    uint8 = 0
	rrError uint8 = 1 // payload carries an error string
)

// RemoteError is a peer-reported REQUEST_REPLY failure.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "request_reply: remote error: " + e.Msg }

// ReqRepConfig parameterizes the REQUEST_REPLY protocol.
type ReqRepConfig struct {
	// Retransmit is the client's patience before resending; zero
	// means 50ms.
	Retransmit time.Duration
	// MaxRetries bounds retransmissions; zero means 8.
	MaxRetries int
	// Proto is REQUEST_REPLY's number on the layer below; zero means
	// ip.ProtoRequestReply.
	Proto ip.ProtoNum
	// Clock drives timers; nil means the real clock.
	Clock event.Clock
}

func (c *ReqRepConfig) fill() {
	if c.Retransmit == 0 {
		c.Retransmit = 50 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.Proto == 0 {
		c.Proto = ip.ProtoRequestReply
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
}

// ReqRepStats counts protocol activity. Executions can exceed calls:
// zero-or-more semantics re-execute duplicated requests.
type ReqRepStats struct {
	Calls, Retransmits, Executions, RemoteErrors int64
}

// rrHeader is the decoded REQUEST_REPLY header.
type rrHeader struct {
	typ      uint8
	protoNum uint32
	channel  uint16
	xid      uint32
	status   uint8
}

func (h *rrHeader) encode(b []byte) {
	b[0] = h.typ
	binary.BigEndian.PutUint32(b[1:5], h.protoNum)
	binary.BigEndian.PutUint16(b[5:7], h.channel)
	binary.BigEndian.PutUint32(b[7:11], h.xid)
	b[11] = h.status
}

func decodeRRHeader(b []byte) rrHeader {
	return rrHeader{
		typ:      b[0],
		protoNum: binary.BigEndian.Uint32(b[1:5]),
		channel:  binary.BigEndian.Uint16(b[5:7]),
		xid:      binary.BigEndian.Uint32(b[7:11]),
		status:   b[11],
	}
}

// ReqRep is the REQUEST_REPLY protocol object: request/reply pairing
// with zero-or-more execution semantics. A retransmitted request that
// reaches the server twice runs twice — the property CHANNEL exists to
// remove, and exactly what makes swapping the two layers meaningful. Its
// client half is the call slot CHANNEL runs (amo.Client).
type ReqRep struct {
	xk.BaseProtocol
	cfg ReqRepConfig
	llp xk.Protocol

	mu      sync.Mutex
	enables map[ip.ProtoNum]xk.Protocol
	servers map[rrSrvKey]*RRServerSession

	calls, retransmits, executions, remoteErrors atomic.Int64
	// xids numbers calls across every session of the protocol.
	xids atomic.Uint32

	clients *pmap.Map // proto(1) ++ chan(2) ++ remote(4) → *RRSession
}

// NewReqRep creates REQUEST_REPLY above llp (VIP-shaped participants).
func NewReqRep(name string, llp xk.Protocol, cfg ReqRepConfig) (*ReqRep, error) {
	cfg.fill()
	p := &ReqRep{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		enables:      make(map[ip.ProtoNum]xk.Protocol),
		servers:      make(map[rrSrvKey]*RRServerSession),
		clients:      pmap.New(16),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Stats snapshots the counters.
func (p *ReqRep) Stats() ReqRepStats {
	return ReqRepStats{p.calls.Load(), p.retransmits.Load(), p.executions.Load(), p.remoteErrors.Load()}
}

// Open creates the client end of a request/reply binding, on the
// participants CHANNEL takes (channel.OpenParts).
func (p *ReqRep) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	proto, id, remote, err := channel.OpenParts(ps)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.clients, channel.ClientKey(&kb, proto, id, remote), func() (xk.Session, error) {
		lls, err := p.llp.Open(p, xk.NewParticipants(xk.NewParticipant(p.cfg.Proto), xk.NewParticipant(remote)))
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open id=%d proto=%d remote=%s", id, proto, remote)
		s := &RRSession{p: p, proto: proto, id: id, remote: remote}
		s.slot.Init(p.cfg.Clock, &p.xids)
		s.InitSession(p, hlp, lls)
		return s, nil
	}, func(s xk.Session) { _ = s.(*RRSession).Down(0).Close() })
}

// OpenEnable registers hlp as the server for its protocol number.
func (p *ReqRep) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	p.mu.Lock()
	p.enables[proto] = hlp
	p.mu.Unlock()
	return nil
}

// OpenDisable revokes an enable.
func (p *ReqRep) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	p.mu.Lock()
	delete(p.enables, proto)
	p.mu.Unlock()
	return nil
}

// OpenDone accepts passively created lower sessions.
func (p *ReqRep) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control defers size questions to the layer below.
func (p *ReqRep) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg, xk.CtlGetMTU:
		v, err := p.llp.Control(xk.CtlGetMTU, nil)
		if err != nil || op == xk.CtlHLPMaxMsg {
			return v, err
		}
		return v.(int) - ReqRepHeaderLen, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Demux splits calls from replies.
func (p *ReqRep) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(ReqRepHeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	h := decodeRRHeader(hb)
	if h.protoNum > 0xff {
		return fmt.Errorf("%s: protocol number %d: %w", p.Name(), h.protoNum, xk.ErrBadHeader)
	}
	v, err := lls.Control(xk.CtlGetPeerHost, nil)
	if err != nil {
		return fmt.Errorf("%s: peer unknown: %w", p.Name(), err)
	}
	peer := v.(xk.IPAddr)
	switch h.typ {
	case rrCall:
		return p.serve(h, peer, m, lls)
	case rrReply:
		var kb pmap.Key
		cv, ok := p.clients.Resolve(channel.ClientKey(&kb, ip.ProtoNum(h.protoNum), h.channel, peer))
		if !ok {
			if trace.Enabled(trace.Events) {
				trace.Printf(trace.Events, p.Name(), "drop reply id=%d xid=%d from %s", h.channel, h.xid, peer)
			}
			return nil
		}
		cv.(*RRSession).receive(h, m)
		return nil
	default:
		return fmt.Errorf("%s: type %d: %w", p.Name(), h.typ, xk.ErrBadHeader)
	}
}

// rrSrvKey identifies a client binding at the server.
type rrSrvKey struct {
	peer  xk.IPAddr
	proto ip.ProtoNum
	id    uint16
}

// serve executes a request. No duplicate suppression: zero-or-more
// semantics means every received copy runs.
func (p *ReqRep) serve(h rrHeader, peer xk.IPAddr, m *msg.Msg, lls xk.Session) error {
	proto := ip.ProtoNum(h.protoNum)
	k := rrSrvKey{peer: peer, proto: proto, id: h.channel}
	p.mu.Lock()
	hlp := p.enables[proto]
	if hlp == nil {
		p.mu.Unlock()
		return fmt.Errorf("%s: proto %d: %w", p.Name(), proto, xk.ErrNoSession)
	}
	ss := p.servers[k]
	fresh := ss == nil
	if fresh {
		ss = &RRServerSession{p: p, key: k}
		ss.InitSession(p, hlp, lls)
		p.servers[k] = ss
	}
	p.mu.Unlock()
	p.executions.Add(1)

	ss.mu.Lock()
	ss.pendingXid = h.xid
	ss.pendingOK = true
	ss.SetDown(0, lls)
	ss.mu.Unlock()

	if fresh {
		pps := xk.NewParticipants(
			xk.NewParticipant(proto, channel.ID(h.channel)),
			xk.NewParticipant(peer),
		)
		if err := hlp.OpenDone(p, ss, pps); err != nil {
			return err
		}
	}
	if err := hlp.Demux(ss, m); err != nil {
		return ss.PushError(err.Error())
	}
	return nil
}

// RRSession is the client end: one call at a time, in its call slot.
type RRSession struct {
	xk.BaseSession
	p      *ReqRep
	proto  ip.ProtoNum
	id     uint16
	remote xk.IPAddr

	slot amo.Client
}

// Call sends the request and waits for the reply, retransmitting
// blindly every Retransmit, MaxRetries times — zero-or-more semantics.
// Call consumes m; a retransmission clones the copy the session holds.
func (s *RRSession) Call(m *msg.Msg) (*msg.Msg, error) {
	if s.Closed() {
		return nil, xk.ErrClosed
	}
	p := s.p
	p.calls.Add(1)
	xid, ok := s.slot.Start(1, p.cfg.Retransmit, p.cfg.MaxRetries, retry.Step{})
	if !ok {
		return nil, fmt.Errorf("%s: session %d busy", p.Name(), s.id)
	}
	defer s.slot.Finish()
	s.slot.Hold(m)

	h := rrHeader{typ: rrCall, protoNum: uint32(s.proto), channel: s.id, xid: xid}
	var hb [ReqRepHeaderLen]byte
	h.encode(hb[:])
	lls := s.Down(0)
	for out := m; ; out = s.slot.Held() {
		out.MustPush(hb[:])
		if err := lls.Push(out); err != nil {
			return nil, err
		}
		r, replied, again := s.slot.Wait()
		if replied {
			return r.M, r.Err
		}
		if !again {
			return nil, fmt.Errorf("%s: call id=%d xid=%d to %s: %w", p.Name(), s.id, xid, s.remote, xk.ErrTimeout)
		}
		p.retransmits.Add(1)
	}
}

// receive completes the call in progress if the xid matches.
func (s *RRSession) receive(h rrHeader, m *msg.Msg) {
	switch {
	case !s.slot.Accept(h.xid): // a stale reply to an earlier call
	case h.status != rrOK:
		s.p.remoteErrors.Add(1)
		s.slot.Deliver(nil, &RemoteError{Msg: string(m.Bytes())})
	default:
		s.slot.Deliver(m, nil)
	}
}

// Push is a call with the reply discarded.
func (s *RRSession) Push(m *msg.Msg) error {
	_, err := s.Call(m)
	return err
}

// Pop is unused.
func (s *RRSession) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters, delegating the rest downward.
func (s *RRSession) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.remote, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// Close releases the caller's hold; the last one unbinds the session. The
// FRAGMENT session below stays open, as CHANNEL's does.
func (s *RRSession) Close() error {
	var kb pmap.Key
	if s.p.clients.Release(channel.ClientKey(&kb, s.proto, s.id, s.remote), s) {
		s.MarkClosed()
	}
	return nil
}

// RRServerSession is the server end: Push answers the pending request.
type RRServerSession struct {
	xk.BaseSession
	p   *ReqRep
	key rrSrvKey

	mu         sync.Mutex
	pendingXid uint32
	pendingOK  bool
}

// Peer reports the client host.
func (s *RRServerSession) Peer() xk.IPAddr { return s.key.peer }

// Push sends the reply for the pending request.
func (s *RRServerSession) Push(m *msg.Msg) error { return s.reply(m, rrOK) }

// PushError reports a failure for the pending request.
func (s *RRServerSession) PushError(text string) error {
	return s.reply(msg.New([]byte(text)), rrError)
}

func (s *RRServerSession) reply(m *msg.Msg, status uint8) error {
	s.mu.Lock()
	if !s.pendingOK {
		s.mu.Unlock()
		return fmt.Errorf("%s: no pending request on id %d", s.p.Name(), s.key.id)
	}
	xid := s.pendingXid
	s.pendingOK = false
	s.mu.Unlock()
	h := rrHeader{typ: rrReply, protoNum: uint32(s.key.proto), channel: s.key.id, xid: xid, status: status}
	var hb [ReqRepHeaderLen]byte
	h.encode(hb[:])
	m.MustPush(hb[:])
	return s.Down(0).Push(m)
}

// Pop is unused.
func (s *RRServerSession) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters, delegating the rest downward.
func (s *RRServerSession) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.key.peer, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.key.proto), nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}
