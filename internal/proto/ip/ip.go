// Package ip implements the Internet Protocol: 64 KB datagrams,
// fragmentation to the lower layer's MTU, reassembly with timeout,
// header checksums, TTL, static routing, and router-style forwarding
// between interfaces.
//
// In the paper's terms IP is the protocol whose fixed round-trip cost
// (0.37 msec on a Sun 3/75) motivates virtual protocols: inserting it
// below RPC buys reach beyond one ethernet at a 21% latency penalty that
// is pure waste when client and server share a wire (§3.1). VIP exists to
// pay that cost only when it buys something.
package ip

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/eth"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the fixed IPv4 header size (no options).
const HeaderLen = 20

// MaxDatagram is the largest IP datagram: "IP is able to deliver 64k-byte
// packets to any host in the Internet" (§3.1).
const MaxDatagram = 65535

// DefaultTTL is the initial time-to-live.
const DefaultTTL = 16

// ProtoNum is the 8-bit IP protocol number component carried in
// participants — the field whose 256-value limit shapes VIP's address
// mapping (§3.1).
type ProtoNum uint8

// Well-known protocol numbers.
const (
	ProtoICMP ProtoNum = 1
	ProtoUDP  ProtoNum = 17
	// Numbers for this suite's experimental protocols (unassigned
	// space).
	ProtoSpriteRPC ProtoNum = 200
	ProtoFragment  ProtoNum = 201
	ProtoChannel   ProtoNum = 202
	ProtoSunRPC    ProtoNum = 203
	ProtoPsync     ProtoNum = 204
	// Numbers for protocols that sit above CHANNEL or FRAGMENT; the
	// layered headers reuse the same 8-bit space for their own
	// protocol number fields.
	ProtoSelect       ProtoNum = 210
	ProtoRDG          ProtoNum = 211
	ProtoSunSelect    ProtoNum = 212
	ProtoRequestReply ProtoNum = 213
)

// Resolver resolves an IP address to a hardware address; *arp.Protocol
// implements it via Control(CtlResolve).
type Resolver interface {
	Resolve(ip xk.IPAddr) (xk.EthAddr, error)
}

// Interface is one attachment of the IP protocol to a link.
type Interface struct {
	Link xk.Protocol // the ethernet protocol on this link
	ARP  Resolver    // resolver for this link
	Addr xk.IPAddr   // this host's address on this link
	Mask xk.IPAddr   // network mask for direct-delivery decisions
}

// Route sends traffic for Net/Mask out interface If, via Gateway when
// non-zero (zero means deliver directly).
type Route struct {
	Net     xk.IPAddr
	Mask    xk.IPAddr
	Gateway xk.IPAddr
	If      int
}

// Config parameterizes the protocol.
type Config struct {
	// TTL for originated datagrams; zero means DefaultTTL.
	TTL uint8
	// ReassemblyTimeout bounds how long partial datagrams are held;
	// zero means 5s.
	ReassemblyTimeout time.Duration
	// Forward enables router behaviour: datagrams for other hosts are
	// re-routed and re-sent instead of dropped.
	Forward bool
	// Clock drives reassembly timers; nil means the real clock.
	Clock event.Clock
}

func (c *Config) fill() {
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.ReassemblyTimeout == 0 {
		c.ReassemblyTimeout = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
}

// Stats counts protocol activity for tests and diagnostics.
type Stats struct {
	Sent, Received, Forwarded  int64
	FragmentsSent, Reassembled int64
	ChecksumErrors, TTLExpired int64
	ReassemblyTimeouts         int64
	NoRoute                    int64
}

// Protocol is the IP protocol object.
type Protocol struct {
	xk.BaseProtocol
	cfg  Config
	ifcs []Interface

	mu      sync.Mutex
	routes  []Route
	ident   uint16
	reasm   map[reasmKey]*reasmBuf
	stats   Stats
	active  *pmap.Map // key: proto(1) ++ remote(4) → *session
	enables *pmap.Map // key: proto(1) → xk.Protocol
}

// New creates the IP protocol attached to the given interfaces, installs
// direct routes for each interface's network, and enables reception on
// every link.
func New(name string, cfg Config, ifcs ...Interface) (*Protocol, error) {
	if len(ifcs) == 0 {
		return nil, fmt.Errorf("%s: no interfaces", name)
	}
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		ifcs:         ifcs,
		reasm:        make(map[reasmKey]*reasmBuf),
		active:       pmap.New(16),
		enables:      pmap.New(8),
	}
	for i, ifc := range ifcs {
		p.routes = append(p.routes, Route{
			Net:  maskNet(ifc.Addr, ifc.Mask),
			Mask: ifc.Mask,
			If:   i,
		})
		lp := xk.LocalOnly(xk.NewParticipant(eth.Type(eth.TypeIP)))
		if err := ifc.Link.OpenEnable(p, lp); err != nil {
			return nil, fmt.Errorf("%s: enable on %s: %w", name, ifc.Link.Name(), err)
		}
	}
	return p, nil
}

func maskNet(a, mask xk.IPAddr) xk.IPAddr {
	var out xk.IPAddr
	for i := range a {
		out[i] = a[i] & mask[i]
	}
	return out
}

// AddRoute installs a route (most-specific mask wins on lookup).
func (p *Protocol) AddRoute(r Route) {
	p.mu.Lock()
	p.routes = append(p.routes, r)
	sort.SliceStable(p.routes, func(i, j int) bool {
		return maskBits(p.routes[i].Mask) > maskBits(p.routes[j].Mask)
	})
	p.mu.Unlock()
}

func maskBits(m xk.IPAddr) int {
	n := 0
	for _, b := range m {
		for ; b != 0; b <<= 1 {
			if b&0x80 != 0 {
				n++
			}
		}
	}
	return n
}

// lookupRoute returns the next hop and interface for dst.
func (p *Protocol) lookupRoute(dst xk.IPAddr) (nextHop xk.IPAddr, ifIndex int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.routes {
		if maskNet(dst, r.Mask) == r.Net {
			if r.Gateway == (xk.IPAddr{}) {
				return dst, r.If, nil
			}
			return r.Gateway, r.If, nil
		}
	}
	p.stats.NoRoute++
	return xk.IPAddr{}, 0, fmt.Errorf("ip: %s: %w", dst, xk.ErrNoRoute)
}

// IsLocalAddr reports whether a is one of this host's addresses.
func (p *Protocol) IsLocalAddr(a xk.IPAddr) bool {
	for _, ifc := range p.ifcs {
		if ifc.Addr == a {
			return true
		}
	}
	return false
}

// Stats snapshots the counters.
func (p *Protocol) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func ipkey(k *pmap.Key, proto ProtoNum, remote xk.IPAddr) []byte {
	return k.Reset().U8(uint8(proto)).Bytes(remote[:]).Built()
}

// Open creates a session to the remote host for the local participant's
// protocol number. parts: local=[ProtoNum], remote=[IPAddr].
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	proto, err := xk.PopAddr[ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	remote, err := xk.PopAddr[xk.IPAddr](&rp, "IP host")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	s, err := pmap.Open(p.active, ipkey(&kb, proto, remote), func() (xk.Session, error) {
		return p.newLinkSession(hlp, proto, remote)
	}, abandon)
	if err == nil {
		trace.Printf(trace.Events, p.Name(), "open proto=%d remote=%s", proto, remote)
	}
	return s, err
}

// newLinkSession builds the session for (proto, remote) over a lower
// ethernet session to the route's next hop.
func (p *Protocol) newLinkSession(hlp xk.Protocol, proto ProtoNum, remote xk.IPAddr) (xk.Session, error) {
	nextHop, ifIndex, err := p.lookupRoute(remote)
	if err != nil {
		return nil, err
	}
	ifc := p.ifcs[ifIndex]
	hw, err := ifc.ARP.Resolve(nextHop)
	if err != nil {
		return nil, fmt.Errorf("%s: next hop %s: %w", p.Name(), nextHop, err)
	}
	lls, err := ifc.Link.Open(p, xk.NewParticipants(
		xk.NewParticipant(eth.Type(eth.TypeIP)),
		xk.NewParticipant(hw),
	))
	if err != nil {
		return nil, err
	}
	return newSession(p, hlp, proto, ifc.Addr, remote, ifIndex, lls), nil
}

// OpenEnable registers hlp for the local participant's protocol number.
// parts: local=[ProtoNum].
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Bind(kb.Reset().U8(uint8(proto)).Built(), hlp)
	return nil
}

// OpenDisable revokes an enable binding.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ProtoNum](&lp, "IP protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	var kb pmap.Key
	p.enables.Unbind(kb.Reset().U8(uint8(proto)).Built())
	return nil
}

// OpenDone accepts lower sessions created passively on our behalf (the
// ethernet layer completing our enable).
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control answers protocol-level queries.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetMyHost:
		return p.ifcs[0].Addr, nil
	case xk.CtlGetMTU:
		return MaxDatagram - HeaderLen, nil
	case xk.CtlGetOptPacket:
		v, err := p.ifcs[0].Link.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	case xk.CtlAddRoute:
		r, ok := arg.(Route)
		if !ok {
			return nil, fmt.Errorf("%s: add route wants Route, got %T", p.Name(), arg)
		}
		p.AddRoute(r)
		return nil, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// header is the parsed IPv4 header.
type header struct {
	totalLen uint16
	ident    uint16
	moreFrag bool
	fragOff  int // bytes
	ttl      uint8
	proto    ProtoNum
	src, dst xk.IPAddr
}

func encodeHeader(b []byte, h header) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.totalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ident)
	frag := uint16(h.fragOff / 8)
	if h.moreFrag {
		frag |= 0x2000
	}
	binary.BigEndian.PutUint16(b[6:8], frag)
	b[8] = h.ttl
	b[9] = byte(h.proto)
	binary.BigEndian.PutUint16(b[10:12], 0)
	copy(b[12:16], h.src[:])
	copy(b[16:20], h.dst[:])
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:HeaderLen]))
}

func parseHeader(b []byte) (header, error) {
	var h header
	if b[0] != 0x45 {
		return h, fmt.Errorf("ip: version/IHL %#02x: %w", b[0], xk.ErrBadHeader)
	}
	if Checksum(b[:HeaderLen]) != 0 {
		return h, fmt.Errorf("ip: header checksum: %w", xk.ErrBadHeader)
	}
	h.totalLen = binary.BigEndian.Uint16(b[2:4])
	h.ident = binary.BigEndian.Uint16(b[4:6])
	frag := binary.BigEndian.Uint16(b[6:8])
	h.moreFrag = frag&0x2000 != 0
	h.fragOff = int(frag&0x1fff) * 8
	h.ttl = b[8]
	h.proto = ProtoNum(b[9])
	copy(h.src[:], b[12:16])
	copy(h.dst[:], b[16:20])
	return h, nil
}

// send fragments (if necessary) and transmits a datagram with header h
// through lls on interface ifIndex.
func (p *Protocol) send(h header, m *msg.Msg, lls xk.Session) error {
	linkMTU, err := lls.Control(xk.CtlGetMTU, nil)
	if err != nil {
		return err
	}
	maxPayload := linkMTU.(int) - HeaderLen
	if m.Len() > MaxDatagram-HeaderLen {
		return fmt.Errorf("%s: %d bytes: %w", p.Name(), m.Len(), xk.ErrMsgTooBig)
	}
	var hb [HeaderLen]byte
	if m.Len() <= maxPayload {
		h.totalLen = uint16(HeaderLen + m.Len())
		encodeHeader(hb[:], h)
		m.MustPush(hb[:])
		if trace.Enabled(trace.Packets) {
			trace.Printf(trace.Packets, p.Name(), "push id=%d dst=%s len=%d", h.ident, h.dst, m.Len())
		}
		return lls.Push(m)
	}
	// Fragment: offsets must be multiples of 8.
	per := maxPayload &^ 7
	frags, err := m.Split(per, HeaderLen+eth.HeaderLen)
	if err != nil {
		return err
	}
	off := 0
	for i, f := range frags {
		fh := h
		fh.fragOff = off
		fh.moreFrag = i < len(frags)-1
		fh.totalLen = uint16(HeaderLen + f.Len())
		off += f.Len()
		encodeHeader(hb[:], fh)
		f.MustPush(hb[:])
		p.mu.Lock()
		p.stats.FragmentsSent++
		p.mu.Unlock()
		if trace.Enabled(trace.Packets) {
			trace.Printf(trace.Packets, p.Name(), "push frag id=%d off=%d mf=%v len=%d", fh.ident, fh.fragOff, fh.moreFrag, f.Len())
		}
		if err := lls.Push(f); err != nil {
			return err
		}
	}
	return nil
}

// Demux handles a datagram coming off a link: checksum and TTL checks,
// local-delivery vs forwarding, reassembly, and dispatch to the session
// or enable binding for the header's protocol number.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Peek(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: short datagram: %w", p.Name(), xk.ErrBadHeader)
	}
	h, err := parseHeader(hb)
	if err != nil {
		p.mu.Lock()
		p.stats.ChecksumErrors++
		p.mu.Unlock()
		return err
	}
	if _, err := m.Pop(HeaderLen); err != nil {
		return err
	}
	// The link may have padded the frame; trim to the datagram length.
	if want := int(h.totalLen) - HeaderLen; m.Len() > want {
		if err := m.Truncate(want); err != nil {
			return err
		}
	}

	if !p.IsLocalAddr(h.dst) {
		return p.forward(h, m)
	}

	if h.moreFrag || h.fragOff > 0 {
		full, fh, done := p.reassemble(h, m)
		if !done {
			return nil
		}
		m, h = full, fh
	}

	p.mu.Lock()
	p.stats.Received++
	p.mu.Unlock()

	var kb pmap.Key
	if v, ok := p.active.Resolve(ipkey(&kb, h.proto, h.src)); ok {
		return v.(*session).Pop(lls, m)
	}
	if v, ok := p.enables.Resolve(kb.Reset().U8(uint8(h.proto)).Built()); ok {
		hlp := v.(xk.Protocol)
		s, fresh, err := pmap.Accept(p.active, ipkey(&kb, h.proto, h.src), func() (xk.Session, error) {
			return p.newLinkSession(hlp, h.proto, h.src)
		}, abandon)
		if err != nil {
			return err
		}
		if !fresh { // a concurrent open bound its session first
			return s.Pop(lls, m)
		}
		ps := xk.NewParticipants(
			xk.NewParticipant(h.proto),
			xk.NewParticipant(h.src),
		)
		if err := hlp.OpenDone(p, s, ps); err != nil {
			_ = s.Close()
			return err
		}
		if trace.Enabled(trace.Events) {
			trace.Printf(trace.Events, p.Name(), "passive open proto=%d remote=%s for %s", h.proto, h.src, hlp.Name())
		}
		return s.Pop(lls, m)
	}
	return fmt.Errorf("%s: proto %d from %s: %w", p.Name(), h.proto, h.src, xk.ErrNoSession)
}

// forward re-routes a datagram for another host (router behaviour).
func (p *Protocol) forward(h header, m *msg.Msg) error {
	if !p.cfg.Forward {
		return fmt.Errorf("%s: datagram for %s, forwarding disabled: %w", p.Name(), h.dst, xk.ErrNoRoute)
	}
	if h.ttl <= 1 {
		p.mu.Lock()
		p.stats.TTLExpired++
		p.mu.Unlock()
		return fmt.Errorf("%s: TTL expired forwarding to %s", p.Name(), h.dst)
	}
	h.ttl--
	nextHop, ifIndex, err := p.lookupRoute(h.dst)
	if err != nil {
		return err
	}
	ifc := p.ifcs[ifIndex]
	hw, err := ifc.ARP.Resolve(nextHop)
	if err != nil {
		return err
	}
	lls, err := ifc.Link.Open(p, xk.NewParticipants(
		xk.NewParticipant(eth.Type(eth.TypeIP)),
		xk.NewParticipant(hw),
	))
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.Forwarded++
	p.mu.Unlock()
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, p.Name(), "forward id=%d dst=%s via %s ttl=%d", h.ident, h.dst, nextHop, h.ttl)
	}
	// Forwarded fragments keep their fragmentation fields; send()
	// would re-fragment only if the next link's MTU were smaller,
	// which this suite's uniform 1500-byte links never hit, so re-emit
	// the single datagram directly.
	h.totalLen = uint16(HeaderLen + m.Len())
	var hb [HeaderLen]byte
	encodeHeader(hb[:], h)
	m.MustPush(hb[:])
	err = lls.Push(m)
	_ = lls.Close()
	return err
}

// session is an IP session: one (protocol number, remote host) binding.
type session struct {
	xk.BaseSession
	p      *Protocol
	proto  ProtoNum
	local  xk.IPAddr
	remote xk.IPAddr
	ifIdx  int
	// peerHost is remote boxed once at open: the layer above asks for it
	// through Control on every message, and boxing per answer would
	// allocate per message.
	peerHost any
}

func newSession(p *Protocol, hlp xk.Protocol, proto ProtoNum, local, remote xk.IPAddr, ifIdx int, lls xk.Session) *session {
	s := &session{p: p, proto: proto, local: local, remote: remote, ifIdx: ifIdx, peerHost: remote}
	s.InitSession(p, hlp, lls)
	return s
}

// Push sends one datagram to the session's remote host.
func (s *session) Push(m *msg.Msg) error {
	if s.Closed() {
		return xk.ErrClosed
	}
	s.p.mu.Lock()
	s.p.ident++
	id := s.p.ident
	s.p.stats.Sent++
	s.p.mu.Unlock()
	h := header{
		ident: id,
		ttl:   s.p.cfg.TTL,
		proto: s.proto,
		src:   s.local,
		dst:   s.remote,
	}
	return s.p.send(h, m, s.Down(0))
}

// Pop delivers a reassembled datagram to the protocol above.
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
	case xk.CtlGetMyHost:
		return s.local, nil
	case xk.CtlGetPeerHost:
		return s.peerHost, nil
	case xk.CtlGetMyProto, xk.CtlGetPeerProto:
		return uint32(s.proto), nil
	case xk.CtlGetMTU:
		return MaxDatagram - HeaderLen, nil
	case xk.CtlGetOptPacket:
		v, err := s.Down(0).Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// Close releases the caller's hold; the last one unbinds the session and
// closes the link session below it.
func (s *session) Close() error {
	var kb pmap.Key
	if !s.p.active.Release(ipkey(&kb, s.proto, s.remote), s) {
		return nil
	}
	return s.BaseSession.Close()
}

// abandon undoes the build of a session that lost the race to bind: it
// releases the link session the build opened.
func abandon(s xk.Session) { _ = s.(*session).BaseSession.Close() }
