// Package tcp implements a Transmission Control Protocol: three-way
// handshake, cumulative acknowledgements, retransmission with
// exponential backoff, sliding-window flow control, in-order delivery
// with out-of-order buffering, and FIN teardown.
//
// The paper's §5 reports that the real TCP could not be moved onto VIP
// "because TCP depends on the length field in the IP header (the TCP
// header does not have a length field of its own) and TCP computes a
// checksum that covers the IP header", concluding that "when designing
// protocols, one should eliminate unnecessary dependencies on other
// protocols". This implementation follows that advice: the header
// carries its own length field and the checksum covers only TCP's own
// header and payload, so the protocol composes with anything offering
// unreliable datagram delivery — IP and VIP alike. The test suite runs
// the same connection code over both, which is precisely the experiment
// the paper's authors could not perform with the original TCP.
//
// Simplifications relative to a full 1989 TCP: no urgent data, no
// options (fixed MSS), no delayed acknowledgements, no congestion
// control (the paper predates its deployment), and an abbreviated
// TIME_WAIT.
package tcp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the TCP header:
// src(2) dst(2) seq(4) ack(4) flags(1) window(2) len(2) cksum(2).
const HeaderLen = 19

// Port is the participant component TCP pops.
type Port uint16

// ProtoTCP is TCP's protocol number on the layer below.
const ProtoTCP ip.ProtoNum = 6

// Flag bits.
const (
	flagSYN uint8 = 1 << 0
	flagACK uint8 = 1 << 1
	flagFIN uint8 = 1 << 2
	flagRST uint8 = 1 << 3
)

// Config parameterizes the protocol.
type Config struct {
	// MSS is the maximum segment payload; zero derives it from the
	// lower layer's optimal packet size.
	MSS int
	// Window is the flow-control window advertised to the peer and
	// the bound on bytes in flight; zero means 16 KB.
	Window int
	// RTO is the initial retransmission timeout; zero means 100ms.
	RTO time.Duration
	// MaxRetries bounds retransmissions of one segment; zero means 8.
	MaxRetries int
	// ConnectTimeout bounds the handshake; zero means 2s.
	ConnectTimeout time.Duration
	// Proto is TCP's number on the layer below; zero means ProtoTCP.
	Proto ip.ProtoNum
	// Clock drives every timer; nil means the real clock.
	Clock event.Clock
}

func (c *Config) fill() {
	if c.Window == 0 {
		c.Window = 16 * 1024
	}
	if c.RTO == 0 {
		c.RTO = 100 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.ConnectTimeout == 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	if c.Proto == 0 {
		c.Proto = ProtoTCP
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
}

// Stats counts protocol activity.
type Stats struct {
	SegmentsSent, SegmentsReceived int64
	Retransmits, DupAcksSent       int64
	OutOfOrderQueued, Resets       int64
	ChecksumErrors                 int64
	MaxInflight                    int64
}

// header is the decoded TCP header.
type header struct {
	src, dst Port
	seq, ack uint32
	flags    uint8
	window   uint16
	length   uint16
}

func (h *header) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], uint16(h.src))
	binary.BigEndian.PutUint16(b[2:4], uint16(h.dst))
	binary.BigEndian.PutUint32(b[4:8], h.seq)
	binary.BigEndian.PutUint32(b[8:12], h.ack)
	b[12] = h.flags
	binary.BigEndian.PutUint16(b[13:15], h.window)
	binary.BigEndian.PutUint16(b[15:17], h.length)
	binary.BigEndian.PutUint16(b[17:19], 0) // checksum filled by buildSegment
}

func decodeHeader(b []byte) header {
	return header{
		src:    Port(binary.BigEndian.Uint16(b[0:2])),
		dst:    Port(binary.BigEndian.Uint16(b[2:4])),
		seq:    binary.BigEndian.Uint32(b[4:8]),
		ack:    binary.BigEndian.Uint32(b[8:12]),
		flags:  b[12],
		window: binary.BigEndian.Uint16(b[13:15]),
		length: binary.BigEndian.Uint16(b[15:17]),
	}
}

// Protocol is the TCP protocol object.
type Protocol struct {
	xk.BaseProtocol
	cfg Config
	llp xk.Protocol

	mu      sync.Mutex
	nextISS uint32
	stats   Stats
	enables map[Port]xk.Protocol

	active *pmap.Map // lport(2) ++ rport(2) ++ rhost(4) → *Conn
}

// New creates TCP above llp, which must take VIP-shaped participants —
// IP or VIP, interchangeably, which is the §5 point.
func New(name string, llp xk.Protocol, cfg Config) (*Protocol, error) {
	cfg.fill()
	if cfg.MSS == 0 {
		if v, err := llp.Control(xk.CtlGetOptPacket, nil); err == nil {
			cfg.MSS = v.(int) - HeaderLen
		} else {
			cfg.MSS = 1024
		}
	}
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		nextISS:      1000,
		enables:      make(map[Port]xk.Protocol),
		active:       pmap.New(16),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Stats snapshots the counters.
func (p *Protocol) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// iss hands out deterministic initial sequence numbers.
func (p *Protocol) iss() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextISS += 64000
	return p.nextISS
}

func key(k *pmap.Key, lport, rport Port, rhost xk.IPAddr) []byte {
	return k.Reset().U16(uint16(lport)).U16(uint16(rport)).Bytes(rhost[:]).Built()
}

// Control answers capability queries. TCP fragments its stream into
// MSS-sized segments itself, so its answer to a virtual protocol's size
// question is one segment.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return p.cfg.MSS + HeaderLen, nil
	case xk.CtlGetMTU:
		return p.cfg.Window, nil
	case xk.CtlGetOptPacket:
		return p.cfg.MSS, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Open actively connects: parts local=[Port], remote=[Port, IPAddr].
// It blocks until the three-way handshake completes (or fails).
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local TCP port")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	rport, err := xk.PopAddr[Port](&rp, "remote TCP port")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	c, ok := rp.Peek()
	if !ok {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), xk.ErrBadParticipants)
	}
	rhost, ok := c.(xk.IPAddr)
	if !ok {
		return nil, fmt.Errorf("%s: open: remote host has type %T: %w", p.Name(), c, xk.ErrBadParticipants)
	}
	lls, err := p.llp.Open(p, &xk.Participants{
		Local:  xk.NewParticipant(p.cfg.Proto),
		Remote: rp,
	})
	if err != nil {
		return nil, err
	}
	conn := newConn(p, hlp, lport, rport, rhost, lls, true)
	var kb pmap.Key
	if _, inserted := p.active.BindIfAbsent(key(&kb, lport, rport, rhost), conn); !inserted {
		return nil, fmt.Errorf("%s: connection %d->%s:%d already exists", p.Name(), lport, rhost, rport)
	}
	if err := conn.connect(); err != nil {
		p.active.Release(key(&kb, lport, rport, rhost), conn)
		return nil, err
	}
	trace.Printf(trace.Events, p.Name(), "established %d -> %s:%d", lport, rhost, rport)
	return conn, nil
}

// OpenEnable listens on a port.
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local TCP port")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	p.mu.Lock()
	p.enables[lport] = hlp
	p.mu.Unlock()
	return nil
}

// OpenDisable stops listening.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	lport, err := xk.PopAddr[Port](&lp, "local TCP port")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	p.mu.Lock()
	delete(p.enables, lport)
	p.mu.Unlock()
	return nil
}

// OpenDone accepts lower sessions created passively for our enable.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux verifies and routes a segment.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	raw := m.Bytes()
	if len(raw) < HeaderLen {
		return fmt.Errorf("%s: short segment: %w", p.Name(), xk.ErrBadHeader)
	}
	h := decodeHeader(raw)
	if int(h.length) != len(raw)-HeaderLen {
		// The self-contained length field: the lower layer may have
		// padded the message, or it was corrupted.
		if int(h.length) > len(raw)-HeaderLen {
			p.count(func(s *Stats) { s.ChecksumErrors++ })
			return fmt.Errorf("%s: length %d of %d: %w", p.Name(), h.length, len(raw)-HeaderLen, xk.ErrBadHeader)
		}
		raw = raw[:HeaderLen+int(h.length)]
	}
	if !verifyChecksum(raw) {
		p.count(func(s *Stats) { s.ChecksumErrors++ })
		return fmt.Errorf("%s: checksum: %w", p.Name(), xk.ErrBadHeader)
	}
	payload := raw[HeaderLen:]

	v, err := lls.Control(xk.CtlGetPeerHost, nil)
	if err != nil {
		return fmt.Errorf("%s: peer unknown: %w", p.Name(), err)
	}
	rhost, _ := v.(xk.IPAddr)
	p.count(func(s *Stats) { s.SegmentsReceived++ })

	var kb pmap.Key
	if cv, ok := p.active.Resolve(key(&kb, h.dst, h.src, rhost)); ok {
		return cv.(*Conn).segment(h, payload)
	}
	// No connection: a SYN to a listening port opens one passively.
	if h.flags&flagSYN != 0 && h.flags&flagACK == 0 {
		p.mu.Lock()
		hlp := p.enables[h.dst]
		p.mu.Unlock()
		if hlp != nil {
			conn, fresh, _ := pmap.Accept(p.active, key(&kb, h.dst, h.src, rhost), func() (*Conn, error) {
				return newConn(p, hlp, h.dst, h.src, rhost, lls, false), nil
			}, nil)
			if !fresh { // a duplicate SYN raced the first one: one connection
				return conn.segment(h, payload)
			}
			if trace.Enabled(trace.Events) {
				trace.Printf(trace.Events, p.Name(), "passive open %d <- %s:%d", h.dst, rhost, h.src)
			}
			return conn.segment(h, payload)
		}
	}
	// Unknown connection: answer with RST unless this is itself one.
	if h.flags&flagRST == 0 {
		p.sendRST(h, lls)
	}
	return fmt.Errorf("%s: no connection for %d <- %s:%d: %w", p.Name(), h.dst, rhost, h.src, xk.ErrNoSession)
}

func (p *Protocol) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// sendRST answers an unexpected segment.
func (p *Protocol) sendRST(in header, lls xk.Session) {
	h := header{src: in.dst, dst: in.src, seq: in.ack, ack: in.seq + 1, flags: flagRST | flagACK}
	out := buildSegment(h, nil)
	p.count(func(s *Stats) { s.Resets++ })
	_ = lls.Push(out)
}

// buildSegment frames a header and payload, filling in length and
// checksum. The checksum covers only TCP's own header and payload —
// no pseudo-header, no IP dependency (§5's lesson applied).
func buildSegment(h header, payload []byte) *msg.Msg {
	h.length = uint16(len(payload))
	var hb [HeaderLen]byte
	h.encode(hb[:])
	binary.BigEndian.PutUint16(hb[17:19], segmentChecksum(hb[:], payload))
	m := msg.New(append([]byte(nil), payload...))
	m.MustPush(hb[:])
	return m
}

// segmentChecksum computes the internet checksum over the header (with
// a zeroed checksum field) and payload.
func segmentChecksum(hdr, payload []byte) uint16 {
	buf := make([]byte, 0, len(hdr)+len(payload))
	buf = append(buf, hdr...)
	buf[17], buf[18] = 0, 0
	buf = append(buf, payload...)
	return ip.Checksum(buf)
}

// verifyChecksum checks a received segment.
func verifyChecksum(raw []byte) bool {
	got := binary.BigEndian.Uint16(raw[17:19])
	return segmentChecksum(raw[:HeaderLen], raw[HeaderLen:]) == got
}
