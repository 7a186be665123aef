// Package wire defines the transport seam beneath the ethernet driver:
// the boundary between the protocol graph and whatever carries its
// frames. The paper measures layered RPC against a real 10 Mbps
// ethernet; this suite has historically measured it against
// internal/sim's in-memory segment. The seam makes the substrate
// pluggable — the same stacks, chaos scenarios, and load sweeps drive
// either the simulator or real UDP sockets (wire/udp) without the
// protocol code knowing which.
//
// The contract is deliberately the simulator's, because the simulator's
// contract is the paper's ethernet:
//
//   - A Wire is one broadcast domain. Links attach by hardware address;
//     duplicate addresses are refused with ErrDuplicateAddr.
//   - Send carries a complete ethernet frame (header built by the ETH
//     protocol) with the destination passed out-of-band, the way
//     hardware address-matches the header. Frames larger than
//     MTU+EthHeaderBytes are refused with ErrFrameTooBig.
//   - Unicast to an unattached address is NOT an error: the frame
//     vanishes and the FramesNoDest counter ticks, exactly like an
//     ethernet with no interface listening. Datagram loss is a
//     protocol problem (that is the whole point of CHANNEL).
//   - Broadcast reaches every other link on the wire, never the sender.
//   - Received frames arrive on the receiver callback installed with
//     SetReceiver; the callback owns the slice it is handed.
//
// A frame crosses the seam in one of two forms. The message pair
// (SendMsg, SetMsgReceiver) is the driver's: the frame is the *msg.Msg
// ETH was pushed, header and all, and a backend that can hand it to the
// receiving driver as it is does so — no flattening, no re-wrapping, no
// byte copied. The byte pair (Send, SetReceiver) is the raw-frame entry
// for everything that is not a driver: the contract harness, fuzzers,
// tests that override a NIC's receiver. A link has one receive slot and
// the last Set call owns it; a backend converts only where the two ends
// disagree (bytes sent to a message receiver are wrapped with msg.New, a
// message sent to a byte receiver is flattened).
//
// Ownership on the message pair follows "Push consumes" (DESIGN.md §14):
//
//   - SendMsg consumes m. The caller must not read or write m after the
//     call, whatever it returned: m may already be the receiving host's
//     message, on another goroutine. A sender that needs the frame again
//     clones it first (Msg.CopyInto or Msg.Clone), which is what the
//     retransmitting layers do.
//   - The message receiver owns what it is handed, and nobody else holds
//     it. Payload blocks may be shared with clones the sender kept; they
//     are immutable by the message tool's rule, so sharing them is safe.
//   - Out-of-band attributes never cross a wire: a delivered message
//     carries none, whichever path it took.
//   - Headroom of a delivered message is what its sender reserved (plus
//     the headers popped on the way up) when the message itself crossed,
//     and msg.DefaultLeader when it was rebuilt from bytes. Every message
//     on a protocol path is built with DefaultLeader, so the two agree.
//
// What the seam does NOT promise: delivery order across links, a
// virtual clock, or a bit-reproducible frame log. Those are simulator
// properties (internal/sim keeps them); tests that need them build on
// the sim backend directly.
package wire

import (
	"errors"

	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// DefaultMTU is the ethernet maximum transmission unit used throughout
// the paper: "ETH is able to deliver 1500-byte packets".
const DefaultMTU = 1500

// EthHeaderBytes is the framing overhead a backend accepts per frame in
// addition to the MTU payload (14-byte header; preamble/CRC/gap folded
// in to keep the accounting simple but honest about per-frame cost).
// It matches internal/sim's historical constant so frames sized for one
// backend are legal on every backend.
const EthHeaderBytes = 14 + 24

// MaxFrame is the largest frame a backend with the given MTU accepts.
func MaxFrame(mtu int) int { return mtu + EthHeaderBytes }

// Errors every backend returns for the contract's refusals. Backends
// wrap these (errors.Is) with their own detail.
var (
	// ErrFrameTooBig is returned by Link.Send for frames over
	// MTU+EthHeaderBytes.
	ErrFrameTooBig = errors.New("wire: frame exceeds MTU")
	// ErrDuplicateAddr is returned by Attach when the address is
	// already bound on this wire.
	ErrDuplicateAddr = errors.New("wire: address already attached")
	// ErrDetached is returned by Link.Send after the link was detached.
	ErrDetached = errors.New("wire: link detached")
	// ErrClosed is returned by Attach after the wire was closed.
	ErrClosed = errors.New("wire: closed")
)

// Link is one host's attachment to a Wire — the hardware beneath one
// ethernet driver. Its method set includes the driver's Wire interface
// (internal/proto/eth), so a Link plugs into eth.New with no adapter and
// no indirection on the per-frame path.
type Link interface {
	// SendMsg transmits the complete ethernet frame m to dst and
	// consumes m (see the package comment). Refusals and silent
	// no-destination are Send's.
	SendMsg(dst xk.EthAddr, m *msg.Msg) error
	// Send transmits a complete ethernet frame to dst. The frame
	// includes the header built by the ETH protocol; dst is passed
	// out-of-band the way hardware address-matches the header.
	// Unicast to an absent address is silent (FramesNoDest).
	Send(dst xk.EthAddr, frame []byte) error
	// Addr returns the link's hardware address.
	Addr() xk.EthAddr
	// MTU reports the wire MTU (largest frame payload, header excluded).
	MTU() int
	// SetMsgReceiver installs the driver's frame handler: the entry
	// point of the shepherd path upward through the protocol stack.
	// The handler owns the message it is handed. It replaces whatever
	// either Set call installed before; nil uninstalls.
	SetMsgReceiver(func(m *msg.Msg))
	// SetReceiver installs a raw-frame handler in the same slot. The
	// handler owns the slice it is handed. Nil uninstalls.
	SetReceiver(func(frame []byte))
}

// Receiver is a link's one receive slot, ready to be handed a frame in
// either form: a backend calls Frame with a frame it holds as bytes and
// Msg with one it holds as a message, and whichever of the two is not the
// form the handler was installed in converts. FrameReceiver and
// MsgReceiver build it; they are where the seam's conversion rule lives.
type Receiver struct {
	Frame func(frame []byte) // the callee owns the slice
	Msg   func(m *msg.Msg)   // the callee owns the message
}

// FrameReceiver is the slot for a handler installed with SetReceiver
// (nil for a nil handler): a message sent to it is flattened.
func FrameReceiver(f func(frame []byte)) *Receiver {
	if f == nil {
		return nil
	}
	return &Receiver{
		Frame: f,
		Msg:   func(m *msg.Msg) { f(m.Bytes()) },
	}
}

// MsgReceiver is the slot for a handler installed with SetMsgReceiver
// (nil for a nil handler): bytes sent to it are wrapped with msg.New, and
// a message is handed over as it is, its attributes left behind.
func MsgReceiver(f func(m *msg.Msg)) *Receiver {
	if f == nil {
		return nil
	}
	return &Receiver{
		Frame: func(frame []byte) { f(msg.New(frame)) },
		Msg: func(m *msg.Msg) {
			m.ClearAttrs()
			f(m)
		},
	}
}

// Wire is one broadcast domain: the segment Links attach to.
type Wire interface {
	// Attach binds a new link at addr; ErrDuplicateAddr if taken.
	Attach(addr xk.EthAddr) (Link, error)
	// Detach removes a link from the wire. Detaching an already
	// detached link is a no-op.
	Detach(l Link)
	// MTU reports the wire MTU.
	MTU() int
	// Stats returns a snapshot of the wire counters.
	Stats() Stats
	// Close releases the wire's resources (sockets, goroutines).
	// Close is idempotent; the simulator's wire has nothing to release.
	Close() error
}

// Reattacher is the optional crash-model half of the contract: a
// backend that can restore a previously detached Link at its old
// address (the rebooted host's interface coming back, receiver intact).
// Both built-in backends implement it; chaos scenarios require it.
type Reattacher interface {
	Reattach(l Link) error
}

// Stats counts wire activity. Backends without a counter's concept
// leave it zero (the simulator never misdelivers; udp never injects
// faults of its own — FramesDropped there counts frames its validator
// refused).
type Stats struct {
	FramesSent      int64 // accepted by Send
	FramesDelivered int64 // handed to a receiver callback
	FramesDropped   int64 // eaten: injected faults, or refused by validation
	FramesNoDest    int64 // unicast to an unattached address
	BytesSent       int64
}

// Factory creates one fresh broadcast domain. Stack builders take a
// Factory rather than a Wire so a topology with several segments (the
// VIP "destination is not on the local network" case) can mint one per
// segment; each call must return an independent Wire.
type Factory func() (Wire, error)
