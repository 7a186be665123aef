// Package fragment is FRAGMENT, the bottom layer of the decomposed Sprite
// RPC (§3.2): "unreliable (delivery not guaranteed), but persistent
// (recovers from dropped fragments) transmission of large messages".
//
// Unlike the fragmentation embedded in monolithic Sprite RPC, the
// receiver never sends a positive acknowledgement. The sender keeps a
// copy of each message and discards it when a hold timer expires; a
// receiver that detects missing fragments sends a request for exactly
// those fragments. A higher-level protocol that retransmits through
// FRAGMENT gets a fresh sequence number — "FRAGMENT treats the second
// incarnation of the message as an independent message".
//
// The no-positive-ack choice is what makes FRAGMENT reusable: "We chose
// to make it unreliable — i.e., not send positive acknowledgements — so
// that it could also be used by Psync" (§5). Duplicate and out-of-order
// delivery are permitted by contract; clients like CHANNEL provide their
// own once-only semantics.
//
// The header follows the appendix FRAGMENT_HDR:
//
//	type(1) clnt_host(4) srvr_host(4) protocol_num(4) sequence_num(4)
//	num_frags(2) frag_mask(2) len(2)
//
// Because FRAGMENT is "meant to be used by multiple high-level
// protocols", the header includes its own protocol number field — one of
// the paper's two requirements for a layer to stand alone as a protocol.
package fragment

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
	"xkernel/internal/rpc/retry"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the FRAGMENT_HDR size.
const HeaderLen = 23

// NoRetries configures GapRetries to mean literally none: an incomplete
// message is abandoned at the first gap timeout without ever requesting
// a resend. (Zero keeps the default; any negative value behaves like
// NoRetries.)
const NoRetries = -1

// Message types.
const (
	typeData   uint8 = 0
	typeResend uint8 = 1 // frag_mask carries the fragments the requester HAS
)

// Config parameterizes the protocol.
type Config struct {
	// MaxPacket is the largest fragment (header included) pushed into
	// the layer below, and the answer to CtlHLPMaxMsg; zero means
	// 1500.
	MaxPacket int
	// MaxMsg bounds message size; zero means 16k plus slack for the
	// headers of the layers above (the 16-fragment mask is the hard
	// limit).
	MaxMsg int
	// SendHold is how long a sent message is kept for resend requests;
	// zero means 500ms. "the sending host associates a timer with each
	// message it sends and discards the message when the timer
	// expires."
	SendHold time.Duration
	// GapTimeout is the receiver's patience with an incomplete message
	// before requesting the missing fragments; zero means 30ms.
	GapTimeout time.Duration
	// GapRetries bounds resend requests per message; zero means 4,
	// NoRetries (or any negative value) means none. After the last one
	// the partial message is discarded (delivery is not guaranteed).
	GapRetries int
	// Proto is this protocol's number on the layer below; zero means
	// ip.ProtoFragment.
	Proto ip.ProtoNum
	// Clock drives both timers; nil means the real clock.
	Clock event.Clock
	// Retry shapes the gap-request schedule around GapTimeout; nil
	// means the constant-interval policy (retry.Step).
	Retry retry.Policy
}

func (c *Config) fill() {
	if c.MaxPacket == 0 {
		c.MaxPacket = 1500
	}
	if c.MaxMsg == 0 {
		// A 16k client payload plus the SELECT and CHANNEL headers
		// above must fit: Sprite's 16k limit is on the RPC payload,
		// not on FRAGMENT's own message.
		c.MaxMsg = 16*1024 + 512
	}
	if c.SendHold == 0 {
		c.SendHold = 500 * time.Millisecond
	}
	if c.GapTimeout == 0 {
		c.GapTimeout = 30 * time.Millisecond
	}
	if c.GapRetries == 0 {
		c.GapRetries = 4
	} else if c.GapRetries < 0 {
		c.GapRetries = 0
	}
	if c.Proto == 0 {
		c.Proto = ip.ProtoFragment
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
	if c.Retry == nil {
		c.Retry = retry.Default
	}
}

// Stats counts protocol activity.
type Stats struct {
	MessagesSent, MessagesDelivered    int64
	FragmentsSent, FragmentsReceived   int64
	ResendRequestsSent, ResendsHonored int64
	ResendsExpired, MessagesAbandoned  int64
	DuplicateFragments                 int64
}

// header is the decoded FRAGMENT_HDR.
type header struct {
	typ      uint8
	clntHost xk.IPAddr
	srvrHost xk.IPAddr
	protoNum uint32
	seq      uint32
	numFrags uint16
	fragMask uint16
	length   uint16
}

func (h *header) encode(b []byte) {
	b[0] = h.typ
	copy(b[1:5], h.clntHost[:])
	copy(b[5:9], h.srvrHost[:])
	binary.BigEndian.PutUint32(b[9:13], h.protoNum)
	binary.BigEndian.PutUint32(b[13:17], h.seq)
	binary.BigEndian.PutUint16(b[17:19], h.numFrags)
	binary.BigEndian.PutUint16(b[19:21], h.fragMask)
	binary.BigEndian.PutUint16(b[21:23], h.length)
}

func decodeHeader(b []byte) header {
	var h header
	h.typ = b[0]
	copy(h.clntHost[:], b[1:5])
	copy(h.srvrHost[:], b[5:9])
	h.protoNum = binary.BigEndian.Uint32(b[9:13])
	h.seq = binary.BigEndian.Uint32(b[13:17])
	h.numFrags = binary.BigEndian.Uint16(b[17:19])
	h.fragMask = binary.BigEndian.Uint16(b[19:21])
	h.length = binary.BigEndian.Uint16(b[21:23])
	return h
}

// Protocol is the FRAGMENT protocol object.
type Protocol struct {
	xk.BaseProtocol
	cfg   Config
	llp   xk.Protocol
	local xk.IPAddr

	ctr statCounters

	// enables is read on every demux of a complete message and written
	// only at setup; mu is now scoped to it alone.
	mu      sync.RWMutex
	enables map[ip.ProtoNum]xk.Protocol

	active *pmap.Map // proto(1) ++ remote(4) → *session
}

// statCounters mirrors Stats with atomic cells; fragments from many
// concurrent sessions count without sharing a lock.
type statCounters struct {
	messagesSent, messagesDelivered    atomic.Int64
	fragmentsSent, fragmentsReceived   atomic.Int64
	resendRequestsSent, resendsHonored atomic.Int64
	resendsExpired, messagesAbandoned  atomic.Int64
	duplicateFragments                 atomic.Int64
}

// New creates FRAGMENT for the host with address local above llp, which
// must take VIP-shaped participants (IP, VIP, VIPaddr, EthMap).
func New(name string, llp xk.Protocol, local xk.IPAddr, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		local:        local,
		enables:      make(map[ip.ProtoNum]xk.Protocol),
		active:       pmap.New(16),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Stats snapshots the counters.
func (p *Protocol) Stats() Stats {
	return Stats{
		MessagesSent:       p.ctr.messagesSent.Load(),
		MessagesDelivered:  p.ctr.messagesDelivered.Load(),
		FragmentsSent:      p.ctr.fragmentsSent.Load(),
		FragmentsReceived:  p.ctr.fragmentsReceived.Load(),
		ResendRequestsSent: p.ctr.resendRequestsSent.Load(),
		ResendsHonored:     p.ctr.resendsHonored.Load(),
		ResendsExpired:     p.ctr.resendsExpired.Load(),
		MessagesAbandoned:  p.ctr.messagesAbandoned.Load(),
		DuplicateFragments: p.ctr.duplicateFragments.Load(),
	}
}

func key(k *pmap.Key, proto ip.ProtoNum, remote xk.IPAddr) []byte {
	return k.Reset().U8(uint8(proto)).Bytes(remote[:]).Built()
}

// Open creates a session carrying messages for the local participant's
// protocol number to the remote host. parts: local=[ip.ProtoNum],
// remote=[xk.IPAddr].
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	remote, err := xk.PopAddr[xk.IPAddr](&rp, "remote host")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.active, key(&kb, proto, remote), func() (xk.Session, error) {
		lls, err := p.llp.Open(p, xk.NewParticipants(xk.NewParticipant(p.cfg.Proto), xk.NewParticipant(remote)))
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open proto=%d remote=%s", proto, remote)
		return newSession(p, hlp, proto, remote, lls), nil
	}, func(s xk.Session) { _ = s.(*session).Down(0).Close() })
}

// OpenEnable registers hlp for passive session creation.
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
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
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
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
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Control: FRAGMENT tells the virtual protocol below that it never
// pushes more than one packet at a time, exactly as Sprite RPC does.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return p.cfg.MaxPacket, nil
	case xk.CtlGetMTU:
		return p.cfg.MaxMsg, nil
	case xk.CtlGetOptPacket:
		return p.cfg.MaxPacket - HeaderLen, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Demux routes data fragments and resend requests to the session for
// (protocol number, peer host), creating it passively on first contact.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	h := decodeHeader(hb)
	if h.protoNum > 0xff {
		return fmt.Errorf("%s: protocol number %d: %w", p.Name(), h.protoNum, xk.ErrBadHeader)
	}
	proto := ip.ProtoNum(h.protoNum)
	peer := h.clntHost // the message's origin, whichever role it plays

	var kb pmap.Key
	if v, ok := p.active.Resolve(key(&kb, proto, peer)); ok {
		return v.(*session).receive(h, m, lls)
	}
	p.mu.RLock()
	hlp := p.enables[proto]
	p.mu.RUnlock()
	if hlp == nil {
		return fmt.Errorf("%s: proto %d from %s: %w", p.Name(), proto, peer, xk.ErrNoSession)
	}
	s, fresh, _ := pmap.Accept(p.active, key(&kb, proto, peer), func() (*session, error) {
		return newSession(p, hlp, proto, peer, lls), nil
	}, nil)
	if !fresh {
		// A concurrent first contact from the same peer bound its
		// session first. The frame is that session's; the one built
		// here was never published and has nothing armed.
		return s.receive(h, m, lls)
	}
	pps := xk.NewParticipants(
		xk.NewParticipant(proto),
		xk.NewParticipant(peer),
	)
	if err := hlp.OpenDone(p, s, pps); err != nil {
		p.active.Release(key(&kb, proto, peer), s)
		return err
	}
	if trace.Enabled(trace.Events) {
		trace.Printf(trace.Events, p.Name(), "passive open proto=%d remote=%s for %s", proto, peer, hlp.Name())
	}
	return s.receive(h, m, lls)
}
