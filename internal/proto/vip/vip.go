// Package vip implements the paper's virtual protocols (§3.1, §4.3):
//
//   - VIP (Protocol): a header-less protocol with IP semantics that
//     multiplexes its clients' messages onto ETH or IP per destination
//     and per message. At open time it asks the invoking protocol how
//     large its messages get (CtlHLPMaxMsg), asks ARP whether the
//     destination answers on the local wire, and opens an ETH session,
//     an IP session, or both. After that, "the only overhead it adds to
//     message delivery is the cost of the single test in VIP push".
//
//   - VIPaddr (Addr): the open-time-only variant from §4.3. Its Open
//     selects ETH or IP and returns the lower session directly instead
//     of a session of its own, so it never touches a moving message.
//
//   - VIPsize (Size): selects between a bulk-transfer path (FRAGMENT
//     over VIPaddr) and a direct path (VIPaddr) on each push based on
//     message size, which is how §4.3 dynamically removes the FRAGMENT
//     layer for small messages.
//
// Virtual protocols add no header. VIP clients identify themselves "with
// an 8-bit IP protocol number and [their] peer with a 32-bit IP host
// address", and VIP "maps IP protocol numbers onto an unused range of
// 256 ethernet types" (eth.TypeVIPBase).
package vip

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"xkernel/internal/msg"
	"xkernel/internal/proto/eth"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// Resolver is the ARP facility VIP probes for locality.
type Resolver interface {
	Resolve(ip xk.IPAddr) (xk.EthAddr, error)
	Lookup(ip xk.IPAddr) (xk.EthAddr, bool)
}

// ethType maps an 8-bit IP protocol number into VIP's reserved range of
// ethernet types.
func ethType(proto ip.ProtoNum) eth.Type {
	return eth.Type(eth.TypeVIPBase + uint16(proto))
}

// Protocol is VIP.
type Protocol struct {
	xk.BaseProtocol
	ethp xk.Protocol
	ipp  xk.Protocol
	arp  Resolver

	ethMTU int

	mu      sync.Mutex
	enables map[ip.ProtoNum]xk.Protocol
	dir     *Directory // optional advertisement table (§3.1's generalization)

	// sessions maps a lower session to the VIP session wrapping it. Every
	// message coming up is looked up here, so it is an immutable snapshot:
	// Demux loads it, open and close copy it under mu (see rebind).
	sessions atomic.Pointer[map[xk.Session]*session]
}

// rebind publishes a copy of tab in which each non-nil lower session is
// bound to s, or unbound when s is nil. The caller holds the lock that
// serialises tab's writers.
func rebind[S any](tab *atomic.Pointer[map[xk.Session]*S], s *S, lower ...xk.Session) {
	next := maps.Clone(*tab.Load())
	for _, lls := range lower {
		if lls == nil {
			continue
		}
		if s != nil {
			next[lls] = s
		} else {
			delete(next, lls)
		}
	}
	tab.Store(&next)
}

// New creates VIP above ethp and ipp, using res for the locality test.
func New(name string, ethp, ipp xk.Protocol, res Resolver) (*Protocol, error) {
	v, err := ethp.Control(xk.CtlGetMTU, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: eth MTU: %w", name, err)
	}
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		ethp:         ethp,
		ipp:          ipp,
		arp:          res,
		ethMTU:       v.(int),
		enables:      make(map[ip.ProtoNum]xk.Protocol),
	}
	p.sessions.Store(&map[xk.Session]*session{})
	return p, nil
}

func popVIPAddrs(ps *xk.Participants) (proto ip.ProtoNum, remote xk.IPAddr, err error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	proto, err = xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return 0, remote, err
	}
	remote, err = xk.PopAddr[xk.IPAddr](&rp, "IP host")
	return proto, remote, err
}

// SetDirectory attaches an advertisement table (see NewDirectory and
// NewAnnouncer). With a directory, the open-time locality test consults
// the table instead of probing with ARP: a listed peer is known to be
// both on the wire and running VIP, and an unlisted one goes straight
// through IP with no resolution timeout — the "more general solution"
// of §3.1. Without a directory, VIP assumes, as the paper does, "that
// all hosts on the local ethernet also run VIP".
func (p *Protocol) SetDirectory(d *Directory) {
	p.mu.Lock()
	p.dir = d
	p.mu.Unlock()
}

// locality decides whether remote is reachable directly on the wire
// for the given protocol, and with what hardware address.
func (p *Protocol) locality(proto ip.ProtoNum, remote xk.IPAddr) (xk.EthAddr, bool) {
	p.mu.Lock()
	dir := p.dir
	p.mu.Unlock()
	if dir != nil {
		return dir.Lookup(remote, proto)
	}
	hw, err := p.arp.Resolve(remote)
	return hw, err == nil
}

// Open implements the decision procedure of §3.1: resolve the peer with
// ARP (or consult the advertisement directory); if local and the
// client's messages fit the ethernet MTU, open an ETH session; if not
// local, open an IP session; if local but messages may exceed the MTU,
// open both.
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	proto, remote, err := popVIPAddrs(ps)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}

	maxMsg := 0 // 0 = unbounded (the UDP answer)
	if v, err := hlp.Control(xk.CtlHLPMaxMsg, nil); err == nil {
		maxMsg = v.(int)
	}

	var ethSess, ipSess xk.Session
	hw, local := p.locality(proto, remote)
	if local {
		ethSess, err = p.ethp.Open(p, xk.NewParticipants(
			xk.NewParticipant(ethType(proto)),
			xk.NewParticipant(hw),
		))
		if err != nil {
			return nil, err
		}
	}
	if !local || maxMsg == 0 || maxMsg > p.ethMTU {
		ipSess, err = p.ipp.Open(p, xk.NewParticipants(
			xk.NewParticipant(proto),
			xk.NewParticipant(remote),
		))
		if err != nil {
			if ethSess != nil {
				_ = ethSess.Close()
			}
			return nil, err
		}
	}
	s, _ := p.newSession(hlp, proto, remote, ethSess, ipSess, nil)
	trace.Printf(trace.Events, p.Name(), "open proto=%d remote=%s local=%v eth=%v ip=%v",
		proto, remote, local, ethSess != nil, ipSess != nil)
	return s, nil
}

// newSession wraps the lower sessions in a session and binds them to it.
// A passive open names the lower session its message came up as from: if
// a concurrent first contact on it bound a session first, that one is
// returned instead, and fresh is false.
func (p *Protocol) newSession(hlp xk.Protocol, proto ip.ProtoNum, remote xk.IPAddr, ethSess, ipSess, from xk.Session) (s *session, fresh bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := (*p.sessions.Load())[from]; cur != nil {
		return cur, false
	}
	s = &session{p: p, proto: proto, remote: remote, peerHost: remote}
	s.InitSession(p, hlp, ethSess, ipSess)
	rebind(&p.sessions, s, ethSess, ipSess)
	return s, true
}

// OpenEnable registers hlp for its protocol number on both lower
// protocols: VIP's clients must be reachable whichever wire the peer's
// VIP picked.
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	p.mu.Lock()
	p.enables[proto] = hlp
	p.mu.Unlock()
	if err := p.ethp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(ethType(proto)))); err != nil {
		return err
	}
	return p.ipp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(proto)))
}

// OpenDisable revokes the enable on both lower protocols.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	p.mu.Lock()
	delete(p.enables, proto)
	p.mu.Unlock()
	if err := p.ethp.OpenDisable(p, xk.LocalOnly(xk.NewParticipant(ethType(proto)))); err != nil {
		return err
	}
	return p.ipp.OpenDisable(p, xk.LocalOnly(xk.NewParticipant(proto)))
}

// OpenDone accepts lower sessions created passively; VIP wraps them
// lazily at first demux.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux routes a message coming up from ETH or IP to the VIP session
// wrapping that lower session, creating one (and completing the client's
// passive open) on first contact. VIP popped no header because it pushed
// none.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
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
	var ethSess, ipSess xk.Session
	if lls.Protocol() == p.ethp {
		ethSess = lls
	} else {
		ipSess = lls
	}
	s, fresh := p.newSession(hlp, proto, remote, ethSess, ipSess, lls)
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

// identify recovers (protocol number, remote IP) from a lower session.
// For an ETH session the protocol number comes out of the mapped type
// and the remote IP from the ARP cache (learned when the peer resolved
// us); an unknown IP is tolerable because VIP's clients carry host
// addresses in their own headers.
func (p *Protocol) identify(lls xk.Session) (ip.ProtoNum, xk.IPAddr, error) {
	v, err := lls.Control(xk.CtlGetPeerProto, nil)
	if err != nil {
		return 0, xk.IPAddr{}, err
	}
	n := v.(uint32)
	if lls.Protocol() == p.ethp {
		if n < uint32(eth.TypeVIPBase) || n > uint32(eth.TypeVIPBase)+0xff {
			return 0, xk.IPAddr{}, fmt.Errorf("%s: ethernet type %#04x outside VIP range: %w", p.Name(), n, xk.ErrBadHeader)
		}
		proto := ip.ProtoNum(n - uint32(eth.TypeVIPBase))
		var remote xk.IPAddr
		if hv, err := lls.Control(xk.CtlGetPeerHost, nil); err == nil {
			if mac, ok := hv.(xk.EthAddr); ok {
				remote = reverseARP(p.arp, mac)
			}
		}
		return proto, remote, nil
	}
	hv, err := lls.Control(xk.CtlGetPeerHost, nil)
	if err != nil {
		return 0, xk.IPAddr{}, err
	}
	return ip.ProtoNum(n), hv.(xk.IPAddr), nil
}

// reverseARP finds the IP that maps to mac in res's ARP cache, or the
// zero address.
func reverseARP(res Resolver, mac xk.EthAddr) xk.IPAddr {
	if r, ok := res.(interface {
		Entries() map[xk.IPAddr]xk.EthAddr
	}); ok {
		for ipA, m := range r.Entries() {
			if m == mac {
				return ipA
			}
		}
	}
	return xk.IPAddr{}
}

// Control forwards MTU-ish queries so VIP is transparent to its clients.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMTU:
		return p.ipp.Control(xk.CtlGetMTU, nil)
	case xk.CtlGetOptPacket:
		return p.ethMTU, nil
	case xk.CtlGetMyHost:
		return p.ipp.Control(xk.CtlGetMyHost, nil)
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// session is a VIP session. It holds up to two lower sessions — Down(ethPath)
// and Down(ipPath), either of which may be nil — and picks one per push
// with a single length test.
type session struct {
	xk.BaseSession
	p      *Protocol
	proto  ip.ProtoNum
	remote xk.IPAddr
	// peerHost is remote boxed once at open: the layer above asks for it
	// through Control on every message, and boxing per answer would
	// allocate per message.
	peerHost any
}

// The slots of a VIP session's lower sessions.
const (
	ethPath = iota
	ipPath
)

// Push is the entire data-path cost of VIP: one length comparison.
func (s *session) Push(m *msg.Msg) error {
	ethSess, ipSess := s.Down(ethPath), s.Down(ipPath)
	if ethSess != nil && m.Len() <= s.p.ethMTU {
		return ethSess.Push(m)
	}
	if ipSess == nil {
		var err error
		ipSess, err = s.openIP()
		if err != nil {
			return err
		}
	}
	return ipSess.Push(m)
}

// openIP lazily opens the IP path for a passively created session that
// has only seen ethernet traffic but must now send a message that does
// not fit the wire.
func (s *session) openIP() (xk.Session, error) {
	if s.remote == (xk.IPAddr{}) {
		return nil, fmt.Errorf("%s: peer IP unknown, cannot send oversized message: %w", s.p.Name(), xk.ErrNoRoute)
	}
	ipSess, err := s.p.ipp.Open(s.p, xk.NewParticipants(
		xk.NewParticipant(s.proto),
		xk.NewParticipant(s.remote),
	))
	if err != nil {
		return nil, err
	}
	s.p.mu.Lock()
	cur := s.Down(ipPath)
	if cur == nil {
		s.SetDown(ipPath, ipSess)
		rebind(&s.p.sessions, s, ipSess)
	}
	s.p.mu.Unlock()
	if cur != nil { // a concurrent push opened it first
		_ = ipSess.Close()
		return cur, nil
	}
	return ipSess, nil
}

// Pop passes the message straight up: VIP has no header to strip.
func (s *session) Pop(_ xk.Session, m *msg.Msg) error {
	up := s.Up()
	if up == nil {
		return fmt.Errorf("%s: %w", s.p.Name(), xk.ErrNoSession)
	}
	return up.Demux(s, m)
}

// Control answers with the union of the lower sessions' capabilities.
func (s *session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.peerHost, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	case xk.CtlGetMTU:
		if ipSess := s.Down(ipPath); ipSess != nil {
			return ipSess.Control(xk.CtlGetMTU, nil)
		}
		if s.remote != (xk.IPAddr{}) {
			// The IP path can be opened on demand.
			return s.p.ipp.Control(xk.CtlGetMTU, nil)
		}
		return s.Down(ethPath).Control(xk.CtlGetMTU, nil)
	case xk.CtlGetOptPacket:
		return s.p.ethMTU, nil
	default:
		d := s.Down(ethPath)
		if d == nil {
			d = s.Down(ipPath)
		}
		if d != nil {
			return d.Control(op, arg)
		}
		return nil, xk.ErrOpNotSupported
	}
}

// Close releases the demux bindings, then (BaseSession.Close: once) both
// lower sessions.
func (s *session) Close() error {
	if s.Closed() {
		return nil
	}
	s.p.mu.Lock()
	rebind(&s.p.sessions, nil, s.Down(ethPath), s.Down(ipPath))
	s.p.mu.Unlock()
	return s.BaseSession.Close()
}
