// Package udp implements the User Datagram Protocol on the uniform
// interface. UDP matters to the paper twice: the x-kernel's UDP/IP round
// trip is the headline "no performance penalty" number in §1, and UDP is
// the example of a protocol that "sends arbitrarily large messages (i.e.,
// it depends on IP to fragment large messages)" when VIP asks about
// expected message sizes (§3.1). Its two 16-bit ports are also the §5
// example of addresses that cannot be mapped onto VIP's 8-bit virtual
// address space.
package udp

import (
	"encoding/binary"
	"fmt"

	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Port is the participant component UDP pops.
type Port uint16

// Protocol is the UDP protocol object.
type Protocol struct {
	xk.BaseProtocol
	llp xk.Protocol // IP (or anything with IP-shaped participants)

	active  *pmap.Map // key: lport(2) ++ rport(2) ++ rhost(4) → *session
	enables *pmap.Map // key: lport(2) → xk.Protocol
}

// New creates UDP above llp and registers for IP protocol number 17.
func New(name string, llp xk.Protocol) (*Protocol, error) {
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		llp:          llp,
		active:       pmap.New(16),
		enables:      pmap.New(8),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(ip.ProtoUDP))); err != nil {
		return nil, fmt.Errorf("%s: enable on %s: %w", name, llp.Name(), err)
	}
	return p, nil
}

func key(k *pmap.Key, lport, rport Port, rhost xk.IPAddr) []byte {
	return k.Reset().U16(uint16(lport)).U16(uint16(rport)).Bytes(rhost[:]).Built()
}

// Open creates a session. parts: local=[..., Port], remote=[IPAddr, Port]
// — UDP pops the ports and passes the rest of the remote stack to the
// protocol below.
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local UDP port")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	rport, err := xk.PopAddr[Port](&rp, "remote UDP port")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	rhost, err := peekHost(&rp)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.active, key(&kb, lport, rport, rhost), func() (xk.Session, error) {
		lls, err := p.llp.Open(p, &xk.Participants{Local: xk.NewParticipant(ip.ProtoUDP), Remote: rp})
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open %d -> %s:%d", lport, rhost, rport)
		return newSession(p, hlp, lport, rport, rhost, lls), nil
	}, func(s xk.Session) { _ = s.(*session).BaseSession.Close() })
}

func peekHost(rp *xk.Participant) (xk.IPAddr, error) {
	c, ok := rp.Peek()
	if !ok {
		return xk.IPAddr{}, fmt.Errorf("%w: missing remote host", xk.ErrBadParticipants)
	}
	host, ok := c.(xk.IPAddr)
	if !ok {
		return xk.IPAddr{}, fmt.Errorf("%w: remote host has type %T", xk.ErrBadParticipants, c)
	}
	return host, nil
}

// OpenEnable registers hlp on a local port. parts: local=[Port].
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local UDP port")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Bind(kb.Reset().U16(uint16(lport)).Built(), hlp)
	return nil
}

// OpenDisable revokes a port enable.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local UDP port")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Unbind(kb.Reset().U16(uint16(lport)).Built())
	return nil
}

// OpenDone accepts IP sessions created passively for our enable.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux dispatches a datagram on (dst port, src port, src host).
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hdr, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	sport := Port(binary.BigEndian.Uint16(hdr[0:2]))
	dport := Port(binary.BigEndian.Uint16(hdr[2:4]))
	ulen := int(binary.BigEndian.Uint16(hdr[4:6]))
	if ulen < HeaderLen || ulen-HeaderLen > m.Len() {
		return fmt.Errorf("%s: length %d: %w", p.Name(), ulen, xk.ErrBadHeader)
	}
	if m.Len() > ulen-HeaderLen {
		if err := m.Truncate(ulen - HeaderLen); err != nil {
			return err
		}
	}
	v, err := lls.Control(xk.CtlGetPeerHost, nil)
	if err != nil {
		return err
	}
	rhost := v.(xk.IPAddr)
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "demux %s:%d -> :%d len=%d", rhost, sport, dport, m.Len())
	}

	var kb pmap.Key
	if s, ok := p.active.Resolve(key(&kb, dport, sport, rhost)); ok {
		return s.(*session).Pop(lls, m)
	}
	if v, ok := p.enables.Resolve(kb.Reset().U16(uint16(dport)).Built()); ok {
		hlp := v.(xk.Protocol)
		s, fresh, _ := pmap.Accept(p.active, key(&kb, dport, sport, rhost), func() (*session, error) {
			return newSession(p, hlp, dport, sport, rhost, lls), nil
		}, nil)
		if !fresh { // a concurrent first contact bound its session first
			return s.Pop(lls, m)
		}
		ps := xk.NewParticipants(
			xk.NewParticipant(dport),
			xk.NewParticipant(rhost, sport),
		)
		if err := hlp.OpenDone(p, s, ps); err != nil {
			p.active.Release(key(&kb, dport, sport, rhost), s)
			return err
		}
		return s.Pop(lls, m)
	}
	return fmt.Errorf("%s: port %d: %w", p.Name(), dport, xk.ErrNoSession)
}

// Control answers protocol queries; UDP reports an unbounded message
// appetite to CtlHLPMaxMsg (it relies on IP fragmentation, §3.1).
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return 0, nil
	case xk.CtlGetMTU:
		v, err := p.llp.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// session is a UDP session: a ⟨local port, remote port, remote host⟩
// binding.
type session struct {
	xk.BaseSession
	p            *Protocol
	lport, rport Port
	rhost        xk.IPAddr
}

func newSession(p *Protocol, hlp xk.Protocol, lport, rport Port, rhost xk.IPAddr, lls xk.Session) *session {
	s := &session{p: p, lport: lport, rport: rport, rhost: rhost}
	s.InitSession(p, hlp, lls)
	return s
}

// Push prepends the UDP header and sends.
func (s *session) Push(m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(s.lport))
	binary.BigEndian.PutUint16(hdr[2:4], uint16(s.rport))
	binary.BigEndian.PutUint16(hdr[4:6], uint16(HeaderLen+m.Len()))
	binary.BigEndian.PutUint16(hdr[6:8], 0) // checksum optional; 0 = none
	m.MustPush(hdr[:])
	return s.Down(0).Push(m)
}

// Pop delivers to the protocol above.
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

// Control answers session queries, forwarding unknown ones downward.
func (s *session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMyProto:
		return uint32(s.lport), nil
	case xk.CtlGetPeerProto:
		return uint32(s.rport), nil
	case xk.CtlGetPeerHost:
		return s.rhost, nil
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

// Close releases the caller's hold; the last one unbinds the session and
// closes the IP session below it.
func (s *session) Close() error {
	var kb pmap.Key
	if !s.p.active.Release(key(&kb, s.lport, s.rport, s.rhost), s) {
		return nil
	}
	return s.BaseSession.Close()
}
