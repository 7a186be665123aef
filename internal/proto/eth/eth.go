// Package eth implements the ethernet driver protocol: the bottom of
// every protocol graph in the paper (Figures 1–3). It frames messages
// with the 14-byte ethernet header, demultiplexes incoming frames on the
// 16-bit type field, and enforces the 1500-byte MTU that makes
// fragmentation layers necessary.
//
// The type field matters to the paper's argument: ethernet supports
// 65,536 high-level protocols while IP supports only 256, which is what
// lets VIP "map IP protocol numbers onto an unused range of 256 ethernet
// types" (§3.1).
package eth

import (
	"encoding/binary"
	"fmt"

	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the ethernet header size: dst(6) src(6) type(2).
const HeaderLen = 14

// Well-known ethernet types used in this suite.
const (
	TypeIP  uint16 = 0x0800
	TypeARP uint16 = 0x0806
	// TypeVIPBase is the start of the unused range of 256 ethernet
	// types VIP maps the 8-bit IP protocol number space onto (§3.1).
	TypeVIPBase uint16 = 0x3000
)

// Type is the component an ethernet participant carries to identify the
// high-level protocol (the demux key).
type Type uint16

// Wire abstracts the hardware beneath the driver: the message pair of a
// wire.Link, which *sim.NIC and every other backend's link implement. A
// frame goes to the wire as the message the driver was pushed and comes
// from it as a message the driver owns (the contract is internal/wire's).
type Wire interface {
	SendMsg(dst xk.EthAddr, m *msg.Msg) error
	Addr() xk.EthAddr
	MTU() int
	SetMsgReceiver(func(m *msg.Msg))
}

// Protocol is the ethernet protocol object.
type Protocol struct {
	xk.BaseProtocol
	wire Wire

	active  *pmap.Map // key: type(2) ++ remote(6) → *session
	enables *pmap.Map // key: type(2) → xk.Protocol
}

// New creates the driver protocol on top of wire and installs its
// receive handler.
func New(name string, wire Wire) *Protocol {
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		wire:         wire,
		active:       pmap.New(16),
		enables:      pmap.New(8),
	}
	wire.SetMsgReceiver(p.receive)
	return p
}

// parts must carry: local = [Type], remote = [EthAddr].
func (p *Protocol) addrs(ps *xk.Participants, needRemote bool) (t Type, remote xk.EthAddr, err error) {
	local := ps.Local.Clone()
	t, err = xk.PopAddr[Type](&local, "ethernet type")
	if err != nil {
		return 0, remote, err
	}
	if needRemote {
		rp := ps.Remote.Clone()
		remote, err = xk.PopAddr[xk.EthAddr](&rp, "ethernet host")
		if err != nil {
			return 0, remote, err
		}
	}
	return t, remote, nil
}

func key(k *pmap.Key, t Type, remote xk.EthAddr) []byte {
	return k.Reset().U16(uint16(t)).Bytes(remote[:]).Built()
}

// Open creates a session that exchanges frames of the participant's type
// with the participant's remote host.
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	t, remote, err := p.addrs(ps, true)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	// Session caching: share the existing binding (the paper's first
	// efficiency rule — "always cache open sessions", §5).
	var kb pmap.Key
	return pmap.Open(p.active, key(&kb, t, remote), func() (xk.Session, error) {
		trace.Printf(trace.Events, p.Name(), "open type=%#04x remote=%s", uint16(t), remote)
		return newSession(p, hlp, t, remote), nil
	}, nil)
}

// OpenEnable registers hlp to receive frames of the participant's type
// for which no active session exists.
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	t, _, err := p.addrs(ps, false)
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Bind(kb.Reset().U16(uint16(t)).Built(), hlp)
	trace.Printf(trace.Events, p.Name(), "open_enable type=%#04x by %s", uint16(t), hlp.Name())
	return nil
}

// OpenDisable revokes an enable binding.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	t, _, err := p.addrs(ps, false)
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Unbind(kb.Reset().U16(uint16(t)).Built())
	return nil
}

// receive is the wire's frame handler: the start of the shepherd's path
// upward.
func (p *Protocol) receive(m *msg.Msg) {
	if err := p.Demux(nil, m); err != nil {
		trace.Printf(trace.Events, p.Name(), "drop: %v", err)
	}
}

// Demux routes a received frame: first to the session bound to
// (type, source), then to the session bound to (type, broadcast) — which
// is how ARP's broadcast session hears every ARP frame — and finally to
// an enable binding, completing a passive open.
func (p *Protocol) Demux(_ xk.Session, m *msg.Msg) error {
	hdr, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	var dst, src xk.EthAddr
	copy(dst[:], hdr[0:6])
	copy(src[:], hdr[6:12])
	t := Type(binary.BigEndian.Uint16(hdr[12:14]))
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "demux type=%#04x src=%s len=%d", uint16(t), src, m.Len())
	}

	var kb pmap.Key
	if v, ok := p.active.Resolve(key(&kb, t, src)); ok {
		return v.(*session).Pop(nil, m)
	}
	if v, ok := p.active.Resolve(key(&kb, t, xk.BroadcastEth)); ok {
		return v.(*session).Pop(nil, m)
	}
	if v, ok := p.enables.Resolve(kb.Reset().U16(uint16(t)).Built()); ok {
		hlp := v.(xk.Protocol)
		s, fresh, _ := pmap.Accept(p.active, key(&kb, t, src), func() (*session, error) {
			return newSession(p, hlp, t, src), nil
		}, nil)
		if !fresh { // a concurrent first contact bound its session first
			return s.Pop(nil, m)
		}
		ps := xk.NewParticipants(
			xk.NewParticipant(t),
			xk.NewParticipant(src),
		)
		if err := hlp.OpenDone(p, s, ps); err != nil {
			_ = s.Close()
			return err
		}
		if trace.Enabled(trace.Events) {
			trace.Printf(trace.Events, p.Name(), "passive open type=%#04x remote=%s for %s", uint16(t), src, hlp.Name())
		}
		return s.Pop(nil, m)
	}
	return fmt.Errorf("%s: type %#04x from %s: %w", p.Name(), uint16(t), src, xk.ErrNoSession)
}

// Control answers driver-level queries.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMyHost:
		return p.wire.Addr(), nil
	case xk.CtlGetMTU, xk.CtlGetOptPacket:
		return p.wire.MTU(), nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// session is an ethernet session: one (type, remote host) binding.
type session struct {
	xk.BaseSession
	p      *Protocol
	t      Type
	remote xk.EthAddr
	hdr    [HeaderLen]byte // prebuilt header, "touch the header as little as possible" (§4.1)
	// mtu is the wire's MTU boxed once at open: IP asks for it through
	// Control on every send, and boxing per answer would allocate per
	// message.
	mtu any
}

func newSession(p *Protocol, hlp xk.Protocol, t Type, remote xk.EthAddr) *session {
	s := &session{p: p, t: t, remote: remote, mtu: p.wire.MTU()}
	s.InitSession(p, hlp)
	copy(s.hdr[0:6], remote[:])
	me := p.wire.Addr()
	copy(s.hdr[6:12], me[:])
	binary.BigEndian.PutUint16(s.hdr[12:14], uint16(t))
	return s
}

// Push frames the message and hands it to the wire, which consumes it.
func (s *session) Push(m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	if m.Len() > s.p.wire.MTU() {
		return fmt.Errorf("%s: %d bytes: %w", s.p.Name(), m.Len(), xk.ErrMsgTooBig)
	}
	m.MustPush(s.hdr[:])
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, s.p.Name(), "push type=%#04x dst=%s len=%d", uint16(s.t), s.remote, m.Len())
	}
	return s.p.wire.SendMsg(s.remote, m)
}

// Pop delivers an already-deframed message to the protocol above.
func (s *session) Pop(_ xk.Session, m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	up := s.Up()
	if up == nil {
		return fmt.Errorf("%s: %w", s.p.Name(), xk.ErrNoSession)
	}
	return up.Demux(s, m)
}

// Control answers session-level queries.
func (s *session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMyHost:
		return s.p.wire.Addr(), nil
	case xk.CtlGetPeerHost:
		return s.remote, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.t), nil
	case xk.CtlGetMTU, xk.CtlGetOptPacket:
		return s.mtu, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Close releases the caller's hold; the last one unbinds the session.
func (s *session) Close() error {
	var kb pmap.Key
	if s.p.active.Release(key(&kb, s.t, s.remote), s) {
		s.MarkClosed()
	}
	return nil
}
