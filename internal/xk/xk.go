// Package xk implements the x-kernel's object-oriented protocol
// infrastructure (§2 of the paper): the uniform interface that every
// protocol in this repository presents, regardless of whether it is a
// device driver (ETH), a conventional network protocol (IP, UDP), a
// virtual protocol (VIP, VIPsize, VIPaddr), or an RPC building block
// (SELECT, CHANNEL, FRAGMENT).
//
// The three properties the paper builds on are visible directly in the
// types here:
//
//   - Uniform interface: Protocol and Session are the only types the
//     composition machinery knows, so any two protocols with the same
//     semantics can be substituted for one another.
//   - Late binding: a protocol receives capabilities for the protocols
//     below it at configuration time (constructor arguments), but the
//     actual binding — a Session — is created at run time by Open, which
//     is what lets VIP pick ETH or IP per destination.
//   - Light-weight layers: Push, Pop and Demux are plain method calls; a
//     shepherd goroutine carries a message the whole way up or down the
//     stack with no context switches unless it blocks on contention.
package xk

import (
	"errors"

	"xkernel/internal/msg"
)

// Errors shared across the protocol suite.
var (
	// ErrOpNotSupported is returned by Control for unrecognized
	// opcodes and by default implementations of optional operations.
	ErrOpNotSupported = errors.New("xk: operation not supported")
	// ErrNoSession means demux found neither an active session nor a
	// passive (open_enable) binding for a message.
	ErrNoSession = errors.New("xk: no session for message")
	// ErrClosed is returned by operations on a closed session.
	ErrClosed = errors.New("xk: session closed")
	// ErrBadHeader means an incoming message's header failed to parse
	// or validate.
	ErrBadHeader = errors.New("xk: malformed header")
	// ErrNoRoute means no lower-level path exists to the requested
	// participant.
	ErrNoRoute = errors.New("xk: no route to participant")
	// ErrTimeout is returned when a bounded operation (RPC, ARP
	// resolution, reassembly) gives up.
	ErrTimeout = errors.New("xk: timed out")
	// ErrMsgTooBig means a message exceeds what the session can carry.
	ErrMsgTooBig = errors.New("xk: message too large for session")
	// ErrPeerRebooted is matched (via errors.Is) by the typed errors
	// the RPC layers return when the server crashed and rebooted while
	// a call was outstanding; the call executed at most once.
	ErrPeerRebooted = errors.New("xk: peer rebooted")
	// ErrBadParticipants means an open call's participants are not in
	// the shape the protocol requires.
	ErrBadParticipants = errors.New("xk: bad participant set")
)

// ControlOp identifies a control operation. The paper observes (§5,
// "Information Loss") that a surprisingly small set — "on the order of two
// dozen" — suffices for layered protocols to learn everything monolithic
// protocols read from shared data structures.
type ControlOp int

// Control opcodes. Arg and result types are documented per opcode; a
// Control implementation returns ErrOpNotSupported for opcodes it does not
// recognize, and callers that can meaningfully forward (sessions with a
// single lower session) forward unrecognized opcodes downward.
const (
	// CtlGetMTU: maximum number of bytes this protocol/session can
	// carry in one message. arg: nil; result: int.
	CtlGetMTU ControlOp = iota + 1
	// CtlGetOptPacket: the size at which this layer is most efficient
	// (e.g. eth MTU for IP). arg: nil; result: int.
	CtlGetOptPacket
	// CtlGetMyHost: this host's address at this layer. arg: nil;
	// result: EthAddr or IPAddr.
	CtlGetMyHost
	// CtlGetPeerHost: the remote participant's address at this layer.
	// arg: nil; result: EthAddr or IPAddr. (Sessions only.)
	CtlGetPeerHost
	// CtlGetMyProto / CtlGetPeerProto: the local/remote protocol or
	// port number bound to a session. arg: nil; result: uint32.
	CtlGetMyProto
	CtlGetPeerProto
	// CtlResolve: ARP resolution. arg: IPAddr; result: EthAddr.
	// Failure with ErrTimeout is how VIP learns a host is not on the
	// local network (§3.1).
	CtlResolve
	// CtlHLPMaxMsg: asked *of a high-level protocol* by a virtual
	// protocol at open time: "what is the largest message you will ever
	// push?" (§3.1 — Sprite RPC answers 1500, UDP answers the IP
	// maximum). arg: nil; result: int.
	CtlHLPMaxMsg
	// CtlAddRoute: install a route. arg: Route (defined by the IP
	// package); result: nil.
	CtlAddRoute
	// CtlSetLossRate, CtlGetStats: test/diagnostic hooks on drivers.
	CtlSetLossRate
	CtlGetStats
	// CtlFreeChannels: number of idle RPC channels (SELECT/CHANNEL
	// introspection). arg: nil; result: int.
	CtlFreeChannels
	// CtlGetBootID: the sender's boot incarnation id, for crash
	// detection. arg: nil; result: uint32.
	CtlGetBootID
	// CtlPing: liveness probe used by the crash/reboot detector in the
	// native-style RPC analogue. arg: nil; result: nil.
	CtlPing
)

// Protocol is the uniform protocol object interface (§2). A protocol
// creates sessions and demultiplexes incoming messages to them.
type Protocol interface {
	// Name identifies the protocol for tracing and graph printing.
	Name() string

	// Open actively creates a session binding hlp (the invoking
	// high-level protocol) to the participants. Layered on the
	// client/active side of a connection.
	Open(hlp Protocol, ps *Participants) (Session, error)

	// OpenEnable passively registers hlp's willingness to accept
	// sessions matching the (partially specified) participants. The
	// protocol completes such sessions later by invoking hlp.OpenDone
	// when a first message arrives. Server/passive side.
	OpenEnable(hlp Protocol, ps *Participants) error

	// OpenDisable revokes a previous OpenEnable with equal
	// participants.
	OpenDisable(hlp Protocol, ps *Participants) error

	// OpenDone is the upcall a lower protocol makes on hlp to announce
	// a passively created session lls. ps carries the fully resolved
	// participants. The hlp arranges its own state above lls; lls's up
	// binding has already been set to hlp by the caller.
	OpenDone(llp Protocol, lls Session, ps *Participants) error

	// Demux routes an incoming message to one of this protocol's
	// sessions, creating one first (via an enable binding and
	// OpenDone) if necessary. lls is the lower session the message
	// arrived through (nil at a driver).
	Demux(lls Session, m *msg.Msg) error

	// Control reads or sets protocol-level parameters.
	Control(op ControlOp, arg any) (any, error)
}

// LowerHeadroom is the leader space a layer that frames a caller's
// message in place (FRAGMENT's and M.RPC's one-fragment paths) leaves for
// the layers below it: every header pushed beneath an RPC layer in this
// suite (IP 20 + ETH 14 bytes; VIP adds none of its own), with slack. A
// message with less room than that is cut into fresh full-leader
// messages instead. It is the budget's one definition (msg.Fragment keeps
// a copy, held equal by a test): more header below must raise it.
const LowerHeadroom = 64

// RoomInPlace reports whether m's leader can take a header of hdrLen
// bytes in place and still leave LowerHeadroom beneath it.
func RoomInPlace(m *msg.Msg, hdrLen int) bool {
	return m.Headroom() >= hdrLen+LowerHeadroom
}

// Session is the uniform session object interface (§2): the run-time
// end-point of a network connection, holding the protocol interpreter's
// per-connection state.
type Session interface {
	// Protocol returns the protocol this session is an instance of.
	Protocol() Protocol

	// Push sends a message down through this session: the session adds
	// its header and pushes the message through the session(s) below.
	//
	// Push consumes m (and so does the Call of a request/reply
	// session): the session may push its header onto m itself and
	// hand that same message on — all the way to the wire, which may
	// hand it to the receiving host as it is — so the caller must not
	// touch m again. A layer that needs the message later keeps its
	// own: CHANNEL copies it into the channel before pushing
	// (Msg.CopyInto), FRAGMENT holds a multi-fragment message and
	// pushes fragments cut from it; nobody else pays for a copy.
	Push(m *msg.Msg) error

	// Pop receives a message coming up through this session: the
	// session strips and interprets its header and either delivers the
	// message to the protocol above (Up().Demux) or consumes it. lls
	// is the lower session the message arrived through.
	Pop(lls Session, m *msg.Msg) error

	// Control reads or sets session parameters; unrecognized opcodes
	// are forwarded to the lower session when one exists, which is how
	// a SELECT session can be asked for its peer's ethernet address.
	Control(op ControlOp, arg any) (any, error)

	// Up returns the high-level protocol that messages popped through
	// this session are demultiplexed to.
	Up() Protocol

	// SetUp rebinds the session's high-level protocol. The demux
	// machinery uses it when completing passive opens; VIPaddr uses it
	// when splicing itself out of the stack (§4.3).
	SetUp(hlp Protocol)

	// Close gives back the hold its caller's Open took. A protocol
	// that caches sessions (pmap.Open) shares one session per key among
	// its openers and counts them: only the last Close closes the
	// session and releases the lower sessions it opened, so one
	// opener's Close never closes a session another still holds. Each
	// Open is closed once.
	Close() error
}
