package vip

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xkernel/internal/msg"
	"xkernel/internal/proto/eth"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Size is VIPsize (§4.3): a virtual protocol that "selects between
// FRAGMENT and VIPaddr based on message size. Like VIP, VIPsize touches
// every message sent through the protocol stack" — its data-path cost is
// one length test per push. Composing SELECT-CHANNEL-VIPsize over
// {FRAGMENT-VIPaddr, VIPaddr} dynamically removes the FRAGMENT layer for
// single-packet messages, recovering monolithic RPC's latency while
// keeping FRAGMENT's bulk-transfer service for large ones.
type Size struct {
	xk.BaseProtocol
	bulk   xk.Protocol // FRAGMENT (over VIPaddr)
	direct xk.Protocol // VIPaddr
	arp    Resolver    // reverse-maps hardware addresses on passive opens; may be nil

	threshold int // messages at most this long take the direct path

	mu      sync.Mutex
	enables map[ip.ProtoNum]xk.Protocol
	// sessions is VIP's lower session → wrapping session snapshot.
	sessions atomic.Pointer[map[xk.Session]*sizeSession]
}

// NewSize creates VIPsize above bulk (a FRAGMENT-style protocol) and
// direct (a VIPaddr-style protocol). The direct path's optimal packet
// size becomes the size threshold.
func NewSize(name string, bulk, direct xk.Protocol, res Resolver) (*Size, error) {
	v, err := direct.Control(xk.CtlGetOptPacket, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: direct path packet size: %w", name, err)
	}
	p := &Size{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		bulk:         bulk,
		direct:       direct,
		arp:          res,
		threshold:    v.(int),
		enables:      make(map[ip.ProtoNum]xk.Protocol),
	}
	p.sessions.Store(&map[xk.Session]*sizeSession{})
	return p, nil
}

// Open creates a VIPsize session with both paths open. Participants are
// VIP-shaped: local=[ProtoNum], remote=[IPAddr].
func (p *Size) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	proto, remote, err := popVIPAddrs(ps.Clone())
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	directSess, err := p.direct.Open(p, ps.Clone())
	if err != nil {
		return nil, err
	}
	bulkSess, err := p.bulk.Open(p, ps.Clone())
	if err != nil {
		_ = directSess.Close()
		return nil, err
	}
	s, _ := p.newSession(hlp, proto, remote, directSess, bulkSess, nil)
	trace.Printf(trace.Events, p.Name(), "open proto=%d remote=%s threshold=%d", proto, remote, p.threshold)
	return s, nil
}

// newSession is VIP's newSession for VIPsize's two paths.
func (p *Size) newSession(hlp xk.Protocol, proto ip.ProtoNum, remote xk.IPAddr, directSess, bulkSess, from xk.Session) (s *sizeSession, fresh bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := (*p.sessions.Load())[from]; cur != nil {
		return cur, false
	}
	s = &sizeSession{p: p, proto: proto, remote: remote, peerHost: remote}
	s.InitSession(p, hlp, directSess, bulkSess)
	rebind(&p.sessions, s, directSess, bulkSess)
	return s, true
}

// Control answers the questions lower virtual protocols ask. VIPsize
// itself never pushes more than the threshold through the direct path,
// so it reports that as its message appetite to VIPaddr below.
func (p *Size) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return p.threshold, nil
	case xk.CtlGetMTU:
		return p.bulk.Control(xk.CtlGetMTU, nil)
	case xk.CtlGetOptPacket:
		return p.threshold, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// OpenEnable registers hlp and enables both paths with VIPsize as the
// receiver.
func (p *Size) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	p.mu.Lock()
	p.enables[proto] = hlp
	p.mu.Unlock()
	if err := p.direct.OpenEnable(p, ps.Clone()); err != nil {
		return err
	}
	return p.bulk.OpenEnable(p, ps.Clone())
}

// OpenDisable revokes both enables.
func (p *Size) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	p.mu.Lock()
	delete(p.enables, proto)
	p.mu.Unlock()
	if err := p.direct.OpenDisable(p, ps.Clone()); err != nil {
		return err
	}
	return p.bulk.OpenDisable(p, ps.Clone())
}

// OpenDone accepts passively created lower sessions; wrapping happens at
// first demux.
func (p *Size) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux routes an incoming message (from either path) to the wrapping
// session, creating it on first contact.
func (p *Size) Demux(lls xk.Session, m *msg.Msg) error {
	s := (*p.sessions.Load())[lls]
	if s != nil {
		return s.Pop(lls, m)
	}
	proto, remote, err := p.identify(lls)
	if err != nil {
		return err
	}
	p.mu.Lock()
	hlp := p.enables[proto]
	p.mu.Unlock()
	if hlp == nil {
		return fmt.Errorf("%s: proto %d: %w", p.Name(), proto, xk.ErrNoSession)
	}
	var directSess, bulkSess xk.Session
	if lls.Protocol() == p.bulk {
		bulkSess = lls
	} else {
		directSess = lls
	}
	s, fresh := p.newSession(hlp, proto, remote, directSess, bulkSess, lls)
	if !fresh {
		return s.Pop(lls, m)
	}
	lls.SetUp(p)
	ps := xk.NewParticipants(
		xk.NewParticipant(proto),
		xk.NewParticipant(remote),
	)
	if err := hlp.OpenDone(p, s, ps); err != nil {
		return err
	}
	if trace.Enabled(trace.Events) {
		trace.Printf(trace.Events, p.Name(), "passive open proto=%d remote=%s for %s", proto, remote, hlp.Name())
	}
	return s.Pop(lls, m)
}

// identify recovers (protocol number, remote host) from a lower session
// on either path. Ethernet-path sessions report a type in VIP's mapped
// range; FRAGMENT and IP sessions report the protocol number directly.
func (p *Size) identify(lls xk.Session) (ip.ProtoNum, xk.IPAddr, error) {
	v, err := lls.Control(xk.CtlGetPeerProto, nil)
	if err != nil {
		return 0, xk.IPAddr{}, err
	}
	n := v.(uint32)
	if n >= uint32(eth.TypeVIPBase) && n <= uint32(eth.TypeVIPBase)+0xff {
		proto := ip.ProtoNum(n - uint32(eth.TypeVIPBase))
		var remote xk.IPAddr
		if hv, err := lls.Control(xk.CtlGetPeerHost, nil); err == nil {
			if mac, ok := hv.(xk.EthAddr); ok {
				remote = reverseARP(p.arp, mac)
			}
		}
		return proto, remote, nil
	}
	if n > 0xff {
		return 0, xk.IPAddr{}, fmt.Errorf("%s: protocol number %d out of range: %w", p.Name(), n, xk.ErrBadHeader)
	}
	var remote xk.IPAddr
	if hv, err := lls.Control(xk.CtlGetPeerHost, nil); err == nil {
		if ipA, ok := hv.(xk.IPAddr); ok {
			remote = ipA
		}
	}
	return ip.ProtoNum(n), remote, nil
}

// sizeSession picks a path — Down(directPath) or Down(bulkPath) — per push
// with one length test.
type sizeSession struct {
	xk.BaseSession
	p      *Size
	proto  ip.ProtoNum
	remote xk.IPAddr
	// peerHost is remote boxed once at open: the layer above asks for it
	// through Control on every message, and boxing per answer would
	// allocate per message.
	peerHost any
}

// The slots of a VIPsize session's lower sessions.
const (
	directPath = iota
	bulkPath
)

// Push routes by size: at most the threshold goes direct, larger goes
// through the bulk-transfer protocol.
func (s *sizeSession) Push(m *msg.Msg) error {
	if m.Len() <= s.p.threshold {
		d, err := s.path(directPath, s.p.direct)
		if err != nil {
			return err
		}
		return d.Push(m)
	}
	b, err := s.path(bulkPath, s.p.bulk)
	if err != nil {
		return err
	}
	return b.Push(m)
}

// path returns Down(slot), lazily opening it through proto for passively
// created sessions that have only seen the other path.
func (s *sizeSession) path(slot int, proto xk.Protocol) (xk.Session, error) {
	if d := s.Down(slot); d != nil {
		return d, nil
	}
	if s.remote == (xk.IPAddr{}) {
		return nil, fmt.Errorf("%s: peer unknown: %w", s.p.Name(), xk.ErrNoRoute)
	}
	opened, err := proto.Open(s.p, xk.NewParticipants(
		xk.NewParticipant(s.proto),
		xk.NewParticipant(s.remote),
	))
	if err != nil {
		return nil, err
	}
	s.p.mu.Lock()
	cur := s.Down(slot)
	if cur == nil {
		s.SetDown(slot, opened)
		rebind(&s.p.sessions, s, opened)
	}
	s.p.mu.Unlock()
	if cur != nil { // a concurrent push opened it first
		_ = opened.Close()
		return cur, nil
	}
	return opened, nil
}

// Pop passes straight up; VIPsize has no header.
func (s *sizeSession) Pop(_ xk.Session, m *msg.Msg) error {
	up := s.Up()
	if up == nil {
		return fmt.Errorf("%s: %w", s.p.Name(), xk.ErrNoSession)
	}
	return up.Demux(s, m)
}

// Control answers from session state, then the direct path, then bulk.
func (s *sizeSession) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.peerHost, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	case xk.CtlGetMTU:
		if b := s.Down(bulkPath); b != nil {
			return b.Control(xk.CtlGetMTU, nil)
		}
		return s.p.bulk.Control(xk.CtlGetMTU, nil)
	case xk.CtlGetOptPacket:
		return s.p.threshold, nil
	default:
		d := s.Down(directPath)
		if d == nil {
			d = s.Down(bulkPath)
		}
		if d != nil {
			return d.Control(op, arg)
		}
		return nil, xk.ErrOpNotSupported
	}
}

// Close releases the demux bindings, then (BaseSession.Close: once) both
// paths.
func (s *sizeSession) Close() error {
	if s.Closed() {
		return nil
	}
	s.p.mu.Lock()
	rebind(&s.p.sessions, nil, s.Down(directPath), s.Down(bulkPath))
	s.p.mu.Unlock()
	return s.BaseSession.Close()
}
