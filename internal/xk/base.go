package xk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xkernel/internal/msg"
)

// BaseProtocol supplies default implementations of the optional Protocol
// operations so concrete protocols only implement what they support.
// Embed it by value.
type BaseProtocol struct {
	ProtoName string
}

// Name returns the configured protocol name.
func (b *BaseProtocol) Name() string { return b.ProtoName }

// Open fails by default; passive-only protocols (e.g. ARP's responder
// half) never implement it.
func (b *BaseProtocol) Open(Protocol, *Participants) (Session, error) {
	return nil, fmt.Errorf("%s: open: %w", b.ProtoName, ErrOpNotSupported)
}

// OpenEnable fails by default.
func (b *BaseProtocol) OpenEnable(Protocol, *Participants) error {
	return fmt.Errorf("%s: open_enable: %w", b.ProtoName, ErrOpNotSupported)
}

// OpenDisable fails by default.
func (b *BaseProtocol) OpenDisable(Protocol, *Participants) error {
	return fmt.Errorf("%s: open_disable: %w", b.ProtoName, ErrOpNotSupported)
}

// OpenDone fails by default; protocols that never sit above a passive
// open (pure clients) keep this.
func (b *BaseProtocol) OpenDone(Protocol, Session, *Participants) error {
	return fmt.Errorf("%s: open_done: %w", b.ProtoName, ErrOpNotSupported)
}

// Demux fails by default; protocols that never receive from below (pure
// virtual open-time protocols like VIPaddr) keep this.
func (b *BaseProtocol) Demux(Session, *msg.Msg) error {
	return fmt.Errorf("%s: demux: %w", b.ProtoName, ErrOpNotSupported)
}

// Control rejects all opcodes by default.
func (b *BaseProtocol) Control(ControlOp, any) (any, error) {
	return nil, ErrOpNotSupported
}

// BaseSession supplies the bookkeeping every session shares: the owning
// protocol, the high-level protocol messages are demultiplexed to, the
// lower sessions this session pushes through, and a closed flag.
// Embed it by value and call InitSession from the constructor.
//
// up, lower and closed are written at bind time (open, passive re-open,
// close) and read on every Push and Pop, so they are published with atomic
// stores and read with atomic loads: no accessor takes a lock. A published
// lower slice is never modified: SetDown copies it, and mu serialises
// only those copies.
type BaseSession struct {
	proto Protocol

	mu     sync.Mutex
	up     atomic.Pointer[Protocol]
	lower  atomic.Pointer[[]Session]
	closed atomic.Bool
}

// InitSession wires the embedded base. up may be nil for sessions whose
// traffic never flows upward (pure senders).
func (b *BaseSession) InitSession(proto, up Protocol, lower ...Session) {
	b.proto = proto
	b.up.Store(&up)
	b.lower.Store(&lower)
}

// Protocol returns the owning protocol object.
func (b *BaseSession) Protocol() Protocol { return b.proto }

// Up returns the bound high-level protocol.
func (b *BaseSession) Up() Protocol {
	if up := b.up.Load(); up != nil {
		return *up
	}
	return nil
}

// SetUp rebinds the high-level protocol. Rebinding to the protocol
// already bound publishes nothing.
func (b *BaseSession) SetUp(hlp Protocol) {
	if b.Up() != hlp {
		up := hlp // the copy escapes, not the parameter: no allocation when unchanged
		b.up.Store(&up)
	}
}

// Down returns the i'th lower session, or nil when absent.
func (b *BaseSession) Down(i int) Session {
	if l := b.lowers(); i >= 0 && i < len(l) {
		return l[i]
	}
	return nil
}

// lowers returns the published lower sessions; read it, never write it.
func (b *BaseSession) lowers() []Session {
	if l := b.lower.Load(); l != nil {
		return *l
	}
	return nil
}

// SetDown replaces the i'th lower session, growing the slice as needed;
// VIP sessions use it to install the ETH and/or IP sessions they open.
// Installing the session already there publishes nothing (and allocates
// nothing: CHANNEL's server re-installs its reply path on every request).
func (b *BaseSession) SetDown(i int, s Session) {
	if b.Down(i) == s {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.lowers()
	next := make([]Session, max(len(cur), i+1))
	copy(next, cur)
	next[i] = s
	b.lower.Store(&next)
}

// Closed reports whether Close has been called.
func (b *BaseSession) Closed() bool { return b.closed.Load() }

// MarkClosed sets the closed flag, reporting whether this call did the
// closing (false if already closed).
func (b *BaseSession) MarkClosed() bool { return b.closed.CompareAndSwap(false, true) }

// Push fails by default; receive-only sessions keep this.
func (b *BaseSession) Push(*msg.Msg) error {
	return fmt.Errorf("%s: push: %w", b.protoName(), ErrOpNotSupported)
}

// Pop fails by default; send-only sessions keep this.
func (b *BaseSession) Pop(Session, *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", b.protoName(), ErrOpNotSupported)
}

// Control forwards unrecognized opcodes to the first lower session when
// one exists (§5, "Information Loss": layered protocols learn what
// monolithic ones read from globals by asking through control, and the
// natural default is to ask the layer below).
func (b *BaseSession) Control(op ControlOp, arg any) (any, error) {
	if d := b.Down(0); d != nil {
		return d.Control(op, arg)
	}
	return nil, ErrOpNotSupported
}

// Close marks the session closed and closes every lower session.
func (b *BaseSession) Close() error {
	if !b.MarkClosed() {
		return nil
	}
	var first error
	for _, s := range b.lowers() {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *BaseSession) protoName() string {
	if b.proto == nil {
		return "session"
	}
	return b.proto.Name()
}
