// Package psync is a simplified implementation of Psync, the
// many-to-many IPC protocol the paper repeatedly uses as the "other"
// client of its building blocks: Psync exchanges messages of up to 16k
// (§3.2), "could use a protocol that sends large messages, but it does
// not want at most once RPC semantics", and FRAGMENT was deliberately
// made unreliable — no positive acknowledgements — "so that it could
// also be used by Psync" (§5).
//
// The protocol preserves *context*: messages in a conversation form a
// directed acyclic graph in which each message explicitly depends on
// the leaves of the sender's current view. A received message is
// delivered only after everything in its context; missing context is
// chased by asking the dependency's original sender to retransmit from
// its message store. Delivery order between independent (concurrent)
// messages is unconstrained — exactly the partial order the full Psync
// paper defines.
//
// The composition matters more than the algorithm here: Psync runs
// over anything VIP-shaped, and the tests and benchmarks run it over
// FRAGMENT to demonstrate that a bulk-transfer layer carved out of an
// RPC protocol really is reusable by a protocol with completely
// different semantics.
package psync

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

// packet types.
const (
	typeData   uint8 = 0
	typeResend uint8 = 1
)

// MsgID names a message in a conversation: its sender and the sender's
// sequence number.
type MsgID struct {
	Host xk.IPAddr
	Seq  uint32
}

func (id MsgID) String() string { return fmt.Sprintf("%s#%d", id.Host, id.Seq) }

// Message is a delivered conversation message.
type Message struct {
	Conv uint32
	ID   MsgID
	Deps []MsgID
	Data []byte
}

// Config parameterizes the protocol.
type Config struct {
	// Proto is Psync's number on the layer below; zero means
	// ip.ProtoPsync.
	Proto ip.ProtoNum
	// ChaseTimeout is how long to wait for missing context before
	// asking for it; zero means 30ms.
	ChaseTimeout time.Duration
	// ChaseRetries bounds context requests per missing message; zero
	// means 5.
	ChaseRetries int
	// MaxMsg bounds message size; zero means 16k, the paper's Psync
	// limit.
	MaxMsg int
	// Clock drives the chase timers; nil means the real clock.
	Clock event.Clock
}

func (c *Config) fill() {
	if c.Proto == 0 {
		c.Proto = ip.ProtoPsync
	}
	if c.ChaseTimeout == 0 {
		c.ChaseTimeout = 30 * time.Millisecond
	}
	if c.ChaseRetries == 0 {
		c.ChaseRetries = 5
	}
	if c.MaxMsg == 0 {
		c.MaxMsg = 16 * 1024
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
}

// Protocol is the Psync protocol object for one host.
type Protocol struct {
	xk.BaseProtocol
	cfg   Config
	llp   xk.Protocol
	local xk.IPAddr

	mu    sync.Mutex
	convs map[uint32]*Conversation
	peers *pmap.Map // peer host(4) → the lower session to it
}

// New creates Psync above llp (VIP-shaped participants: FRAGMENT, VIP,
// IP all qualify).
func New(name string, llp xk.Protocol, local xk.IPAddr, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		local:        local,
		convs:        make(map[uint32]*Conversation),
		peers:        pmap.New(4),
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Control answers the question VIP asks: Psync fragments through the
// layer below, so it never pushes more than MaxMsg.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return p.cfg.MaxMsg + 512, nil
	case xk.CtlGetMTU:
		return p.cfg.MaxMsg, nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// OpenDone accepts passively created lower sessions.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// session returns (opening if needed) the lower session to peer, which
// the protocol holds for its lifetime.
func (p *Protocol) session(peer xk.IPAddr) (xk.Session, error) {
	var kb pmap.Key
	key := kb.Bytes(peer[:]).Built()
	if s, ok := p.peers.Resolve(key); ok {
		return s.(xk.Session), nil
	}
	s, _, err := pmap.Accept(p.peers, key, func() (xk.Session, error) {
		return p.llp.Open(p, xk.NewParticipants(
			xk.NewParticipant(p.cfg.Proto),
			xk.NewParticipant(peer),
		))
	}, func(s xk.Session) { _ = s.Close() })
	return s, err
}

// Join enters (or creates) conversation conv with the given peers.
// deliver is called, in context order, for every message by another
// participant.
func (p *Protocol) Join(conv uint32, peers []xk.IPAddr, deliver func(Message)) (*Conversation, error) {
	c := &Conversation{
		p:       p,
		id:      conv,
		deliver: deliver,
		graph:   make(map[MsgID]*node),
		store:   make(map[MsgID]*Message),
		waiting: make(map[MsgID]*pendingMsg),
		chases:  make(map[MsgID]*chase),
	}
	for _, peer := range peers {
		if peer == p.local {
			continue
		}
		c.peers = append(c.peers, peer)
	}
	p.mu.Lock()
	if _, dup := p.convs[conv]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("%s: conversation %d already joined", p.Name(), conv)
	}
	p.convs[conv] = c
	p.mu.Unlock()
	trace.Printf(trace.Events, p.Name(), "joined conversation %d with %d peers", conv, len(c.peers))
	return c, nil
}

// Demux handles incoming Psync packets.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	b := m.Bytes()
	if len(b) < 13 { // smallest packet: a resend request
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	typ := b[0]
	conv := binary.BigEndian.Uint32(b[1:5])
	p.mu.Lock()
	c := p.convs[conv]
	p.mu.Unlock()
	if c == nil {
		return fmt.Errorf("%s: conversation %d: %w", p.Name(), conv, xk.ErrNoSession)
	}
	switch typ {
	case typeData:
		pm, err := decodeData(b)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		return c.receive(pm)
	case typeResend:
		if len(b) < 1+4+8 {
			return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
		}
		var id MsgID
		copy(id.Host[:], b[5:9])
		id.Seq = binary.BigEndian.Uint32(b[9:13])
		return c.honorResend(id, lls)
	default:
		return fmt.Errorf("%s: type %d: %w", p.Name(), typ, xk.ErrBadHeader)
	}
}

// encodeData lays out a data packet:
// type(1) conv(4) host(4) seq(4) ndeps(2) deps(8 each) data.
func encodeData(m *Message) []byte {
	out := make([]byte, 0, 15+8*len(m.Deps)+len(m.Data))
	out = append(out, typeData)
	out = binary.BigEndian.AppendUint32(out, m.Conv)
	out = append(out, m.ID.Host[:]...)
	out = binary.BigEndian.AppendUint32(out, m.ID.Seq)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Deps)))
	for _, d := range m.Deps {
		out = append(out, d.Host[:]...)
		out = binary.BigEndian.AppendUint32(out, d.Seq)
	}
	out = append(out, m.Data...)
	return out
}

func decodeData(b []byte) (*Message, error) {
	if len(b) < 15 {
		return nil, xk.ErrBadHeader
	}
	m := &Message{Conv: binary.BigEndian.Uint32(b[1:5])}
	copy(m.ID.Host[:], b[5:9])
	m.ID.Seq = binary.BigEndian.Uint32(b[9:13])
	ndeps := int(binary.BigEndian.Uint16(b[13:15]))
	off := 15
	if len(b) < off+8*ndeps {
		return nil, xk.ErrBadHeader
	}
	for i := 0; i < ndeps; i++ {
		var d MsgID
		copy(d.Host[:], b[off:off+4])
		d.Seq = binary.BigEndian.Uint32(b[off+4 : off+8])
		m.Deps = append(m.Deps, d)
		off += 8
	}
	m.Data = b[off:]
	return m, nil
}
