// Package mrpc is M.RPC: the monolithic implementation of Sprite RPC in
// the x-kernel (§3, §4.1). One protocol object implements everything the
// layered version splits into SELECT, CHANNEL and FRAGMENT: procedure
// dispatch, a fixed set of request/reply channels with at-most-once
// semantics via implicit acknowledgement, and its own fragmentation for
// messages up to 16k.
//
// The implicit-acknowledgement technique follows Birrell & Nelson as the
// paper describes it: "the receipt of a reply message by a client process
// acknowledges the receipt of the corresponding request message it sent
// to the server, and the receipt of a request message by a server process
// acknowledges the receipt of the previous reply message it sent to the
// client". Timeouts trigger retransmissions, which sometimes elicit
// explicit acknowledgements; fragments "are treated as parts of a single
// RPC".
package mrpc

import (
	"fmt"
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// NoRetries configures MaxRetries to mean literally none: every
// fragment is sent once and the call fails on the first timeout. (Zero
// keeps the default; any negative value behaves like NoRetries.)
const NoRetries = -1

// Handler serves one RPC command on the server: it receives the request
// payload and returns the reply payload.
type Handler func(command uint16, args *msg.Msg) (*msg.Msg, error)

// Config parameterizes the protocol.
type Config struct {
	// NumChannels is the fixed, predefined number of RPC channels
	// (§3.2); zero means 8.
	NumChannels int
	// MaxPacket is the largest message this protocol pushes into the
	// layer below — its answer to CtlHLPMaxMsg. Zero means 1500, the
	// Sprite answer.
	MaxPacket int
	// MaxMsg bounds request and reply payloads; zero means 16k, the
	// Sprite limit.
	MaxMsg int
	// RetransmitInterval is the client's base patience before
	// retransmitting; zero means 50ms.
	RetransmitInterval time.Duration
	// MaxRetries bounds retransmissions per call; zero means 8,
	// NoRetries (or any negative value) means none.
	MaxRetries int
	// BootID is this host's boot incarnation; zero means 1.
	BootID uint32
	// Proto is the protocol number this instance answers to on the
	// layer below; zero means ip.ProtoSpriteRPC.
	Proto ip.ProtoNum
	// Clock drives retransmission timers; nil means the real clock.
	Clock event.Clock
	// Retry shapes the retransmission schedule around the base interval
	// (with its multi-fragment increment); nil means the constant-
	// interval policy the paper describes (retry.Step).
	Retry retry.Policy
	// Ledger records executed requests and their framed replies for
	// duplicate suppression; nil means a fresh bounded in-memory
	// ledger (the paper's volatile semantics). A durable ledger
	// (ledger.File) extends at-most-once across crashes of this host.
	Ledger ledger.ExecLedger
}

func (c *Config) fill() {
	if c.NumChannels == 0 {
		c.NumChannels = 8
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = 1500
	}
	if c.MaxMsg == 0 {
		c.MaxMsg = 16 * 1024
	}
	if c.RetransmitInterval == 0 {
		c.RetransmitInterval = 50 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BootID == 0 {
		c.BootID = 1
	}
	if c.Proto == 0 {
		c.Proto = ip.ProtoSpriteRPC
	}
	if c.Clock == nil {
		c.Clock = event.Real()
	}
	if c.Retry == nil {
		c.Retry = retry.Default
	}
	if c.Ledger == nil {
		c.Ledger = ledger.NewMem(ledger.MemOptions{})
	}
}

// Stats counts protocol activity.
type Stats struct {
	Calls, Retransmits, AcksSent, AcksReceived int64
	DuplicateRequests, ReplayedReplies         int64
	RequestsServed, Errors                     int64
	// StaleEpochRejects counts requests this server refused to execute
	// because their epoch hint named an earlier boot incarnation.
	StaleEpochRejects int64
	// LedgerReplays counts the subset of ReplayedReplies answered from
	// the execution ledger across a reboot.
	LedgerReplays int64
	// PeerReboots counts calls this client failed with
	// PeerRebootedError.
	PeerReboots int64
	// StaleReplies counts handler replies refused (amo.ErrStaleReply).
	StaleReplies int64
}

// RemoteError is a server-reported failure, distinguished from transport
// errors so at-most-once tests can tell "executed and failed" from
// "never executed".
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "mrpc: remote error: " + e.Msg }

// PeerRebootedError reports that the server crashed and rebooted while
// a call was outstanding; the call executed at most once (in the old
// incarnation, if at all). Matches errors.Is(err, xk.ErrPeerRebooted).
type PeerRebootedError struct {
	// Host is the rebooted server.
	Host xk.IPAddr
	// BootID is the server's new boot incarnation.
	BootID uint32
}

func (e *PeerRebootedError) Error() string {
	return fmt.Sprintf("mrpc: peer %s rebooted (boot id now %d)", e.Host, e.BootID)
}

// Is makes errors.Is(err, xk.ErrPeerRebooted) true.
func (e *PeerRebootedError) Is(target error) bool { return target == xk.ErrPeerRebooted }

// Protocol is the monolithic Sprite RPC protocol object. One instance
// serves both roles: client calls go out through sessions, and
// registered handlers serve incoming requests.
//
// Locking (DESIGN.md §4): what a fault-free call locks makes at-most-once
// atomic, per conversation, and is the at-most-once core's, the code
// CHANNEL runs — the client slot, with a multi-fragment reply collected
// under it, and the server channel, with a multi-fragment request
// collected under it — or the ledger's.
type Protocol struct {
	xk.BaseProtocol
	cfg   Config
	llp   xk.Protocol
	local xk.IPAddr

	channels []*chanState
	free     chan *chanState

	ctr  statCounters
	host amo.Host // boot id, peer boots, server channels: the at-most-once core

	// handlers is read on every served request and written only at
	// registration: an immutable snapshot readers load and a writer
	// copies under bindMu and publishes.
	bindMu   sync.Mutex
	handlers atomic.Pointer[map[uint16]Handler]
	fallback atomic.Pointer[Handler]
}

// statCounters mirrors Stats with atomic cells so counting stays off
// the locks entirely.
type statCounters struct {
	calls, retransmits, acksSent, acksReceived atomic.Int64
	errors, peerReboots                        atomic.Int64
}

// New creates the protocol for the host with address local above llp,
// which must accept VIP-shaped participants (local=[ip.ProtoNum],
// remote=[xk.IPAddr]) — IP, VIP, or the ethernet mapping shim all do.
func New(name string, llp xk.Protocol, local xk.IPAddr, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		local:        local,
		free:         make(chan *chanState, cfg.NumChannels),
	}
	p.host.Init(name, cfg.BootID, cfg.Ledger)
	p.handlers.Store(&map[uint16]Handler{})
	for i := 0; i < cfg.NumChannels; i++ {
		cs := &chanState{id: uint16(i)}
		cs.slot.Init(cfg.Clock, nil)
		p.channels = append(p.channels, cs)
		p.free <- cs
	}
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

// Register installs the handler for one command.
func (p *Protocol) Register(command uint16, h Handler) {
	p.bindMu.Lock()
	defer p.bindMu.Unlock()
	next := maps.Clone(*p.handlers.Load())
	next[command] = h
	p.handlers.Store(&next)
}

// RegisterDefault installs a catch-all handler for unregistered commands.
func (p *Protocol) RegisterDefault(h Handler) { p.fallback.Store(&h) }

// Stats snapshots the counters.
func (p *Protocol) Stats() Stats {
	n := p.host.Counts()
	return Stats{
		Calls:             p.ctr.calls.Load(),
		Retransmits:       p.ctr.retransmits.Load(),
		AcksSent:          p.ctr.acksSent.Load(),
		AcksReceived:      p.ctr.acksReceived.Load(),
		DuplicateRequests: n.DuplicateRequests,
		ReplayedReplies:   n.ReplayedReplies,
		RequestsServed:    n.RequestsServed,
		Errors:            p.ctr.errors.Load(),
		StaleEpochRejects: n.StaleEpochRejects,
		LedgerReplays:     n.LedgerReplays,
		PeerReboots:       p.ctr.peerReboots.Load(),
		StaleReplies:      n.StaleReplies,
	}
}

// Ledger exposes the execution ledger this protocol records to.
func (p *Protocol) Ledger() ledger.ExecLedger { return p.cfg.Ledger }

// RegisterGauges adds the execution ledger's live-state gauges to set
// under prefix ("<prefix>.ledger.*"), as CHANNEL's does for its own.
func (p *Protocol) RegisterGauges(set *gauge.Set, prefix string) {
	ledger.RegisterGauges(set, prefix, p.cfg.Ledger)
}

// BootID reports the current boot incarnation.
func (p *Protocol) BootID() uint32 { return p.host.Boot() }

// Reboot simulates a crash and restart of this host (amo.Host.Reboot):
// the boot id changes and all server-side channel state is lost, which
// is what the boot_id header field exists to expose.
func (p *Protocol) Reboot() { p.host.Reboot() }

// PeerBootID reports the last boot incarnation observed from host in a
// reply or ack header, or 0 if the host has never answered.
func (p *Protocol) PeerBootID(host xk.IPAddr) uint32 { return p.host.PeerBoot(host) }

// Control answers CtlHLPMaxMsg — the question VIP asks at open time.
// "Sprite RPC reports that it never sends a message greater than
// 1500-bytes (it has its own fragmentation mechanism)" (§3.1).
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		return p.cfg.MaxPacket, nil
	case xk.CtlGetMTU:
		return p.cfg.MaxMsg, nil
	case xk.CtlGetBootID:
		return p.BootID(), nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// Open creates a session bound to a server host. parts:
// remote=[xk.IPAddr].
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	rp := ps.Remote.Clone()
	server, err := xk.PopAddr[xk.IPAddr](&rp, "server host")
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	lls, err := p.llp.Open(p, xk.NewParticipants(
		xk.NewParticipant(p.cfg.Proto),
		xk.NewParticipant(server),
	))
	if err != nil {
		return nil, err
	}
	s := &Session{p: p, server: server}
	s.InitSession(p, hlp, lls)
	trace.Printf(trace.Events, p.Name(), "open server=%s", server)
	return s, nil
}

// OpenDone accepts passively created lower sessions (first contact from
// a new client).
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// chanState is one client-side RPC channel, carrying one call at a time
// in its call slot; the fixed pool bounds concurrency exactly as in Sprite.
type chanState struct {
	id   uint16
	slot amo.Client

	// reply collects a multi-fragment reply, under the slot's lock; last,
	// so a one-fragment call stays off its cache lines.
	reply collector
}

// Session is a client binding to one server host.
type Session struct {
	xk.BaseSession
	p      *Protocol
	server xk.IPAddr
}

// Server returns the remote host this session calls.
func (s *Session) Server() xk.IPAddr { return s.server }

// Call invokes command on the server with the given payload message and
// returns the reply payload: the complete Sprite RPC client path —
// channel allocation, fragmentation, retransmission with implicit
// acknowledgement, at-most-once pairing. Call consumes args.
func (s *Session) Call(command uint16, args *msg.Msg) (*msg.Msg, error) {
	if s.Closed() {
		return nil, xk.ErrClosed
	}
	p := s.p
	if args.Len() > p.cfg.MaxMsg {
		return nil, fmt.Errorf("%s: %d bytes: %w", p.Name(), args.Len(), xk.ErrMsgTooBig)
	}
	p.ctr.calls.Add(1)
	maxFrag := p.cfg.MaxPacket - HeaderLen
	numFrags := uint16(1)
	interval := p.cfg.RetransmitInterval
	if n := fragmask.Count(args.Len(), maxFrag); n > fragmask.Max {
		return nil, fmt.Errorf("%s: %d fragments (max %d): %w", p.Name(), n, fragmask.Max, xk.ErrMsgTooBig)
	} else if n > 1 {
		numFrags = uint16(n)
		// Multi-fragment patience: give the peer time to collect
		// everything before retransmitting.
		interval += time.Duration(n) * (p.cfg.RetransmitInterval / 4)
	}

	// "the SELECT layer simply chooses one of the existing channels
	// when an RPC is invoked; it blocks if there are none available"
	// (§3.2) — the monolithic protocol does the same internally.
	cs := <-p.free
	defer func() { p.free <- cs }()

	// The slot is idle, so no reply touches the collector until Start.
	cs.reply.reset()
	seq, _ := cs.slot.Start(numFrags, interval, p.cfg.MaxRetries, p.cfg.Retry) // the pool gave cs to this call alone
	defer cs.slot.Finish()

	// A request that fits one packet is sent as it is, header pushed in
	// place, and the channel holds a copy for retransmission; a longer one
	// (or one without the header room) is held as it is, and each fragment
	// is cut from it as it is sent.
	inPlace := args.Len() <= maxFrag && xk.RoomInPlace(args, HeaderLen)
	if inPlace {
		cs.slot.Hold(args)
	}
	h := header{
		flags:    flagRequest,
		clntHost: p.local,
		srvrHost: s.server,
		channel:  cs.id,
		// Snapshot the server's last known boot id once per call: if
		// the server reboots mid-call, every retransmission still
		// carries the old hint (see header.go) and is rejected rather
		// than executed twice.
		srvrProc: uint16(p.host.PeerBoot(s.server)),
		seq:      seq,
		numFrags: numFrags,
		command:  command,
		bootID:   p.host.Boot(),
	}

	lls := s.Down(0)
	var c msg.Cutter
	for {
		// The call machine names the fragments (the one ack rule).
		send, pleaseAck := cs.slot.Send()
		if pleaseAck {
			h.flags |= flagPleaseAck
		}
		if !inPlace { // this attempt's fragments come from slabs sized to it
			c.Reset(bits.OnesCount16(send))
		}
		for i := 0; i < int(numFrags); i++ {
			if send&(1<<i) == 0 {
				continue // already at the server
			}
			// A fragment is cut from the request and leaves it as it
			// was; sent in place, a retransmission clones the held copy.
			out := args
			switch {
			case !inPlace:
				off := i * maxFrag
				var err error
				if out, err = c.Fragment(args, off, min(args.Len()-off, maxFrag), msg.DefaultLeader); err != nil {
					return nil, err
				}
			case pleaseAck: // a retransmission
				out = cs.slot.Held()
			}
			h.fragMask = 1 << i
			h.data1Sz = uint16(out.Len())
			var hb [HeaderLen]byte
			h.encode(hb[:])
			out.MustPush(hb[:])
			if err := lls.Push(out); err != nil {
				return nil, err
			}
		}

		r, replied, again := cs.slot.Wait()
		if replied {
			return r.M, r.Err
		}
		if !again {
			return nil, fmt.Errorf("%s: call to %s chan=%d seq=%d: %w", p.Name(), s.server, cs.id, seq, xk.ErrTimeout)
		}
		p.ctr.retransmits.Add(1)
		trace.Printf(trace.Events, p.Name(), "retransmit chan=%d seq=%d attempt=%d", cs.id, seq, cs.slot.Attempt())
	}
}

// CallBytes is Call with plain byte-slice payloads.
func (s *Session) CallBytes(command uint16, args []byte) ([]byte, error) {
	reply, err := s.Call(command, msg.New(args))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// Push satisfies the uniform interface by performing a command-0 call
// and discarding the reply, so M.RPC composes where a one-way protocol
// is expected.
func (s *Session) Push(m *msg.Msg) error {
	_, err := s.Call(0, m)
	return err
}

// Pop is not used: the protocol's Demux consumes incoming messages.
func (s *Session) Pop(lls xk.Session, m *msg.Msg) error {
	return fmt.Errorf("%s: pop: %w", s.p.Name(), xk.ErrOpNotSupported)
}

// Control reports session parameters.
func (s *Session) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.server, nil
	case xk.CtlGetMTU:
		return s.p.cfg.MaxMsg, nil
	default:
		return s.BaseSession.Control(op, arg)
	}
}

// Demux dispatches incoming messages on the flags field: requests to the
// server half, replies and acknowledgements to the waiting channel.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	h := decodeHeader(hb)
	if h.numFrags > fragmask.Max {
		// More fragments than mask bits: no such message can complete.
		return fmt.Errorf("%s: %d fragments (max %d): %w", p.Name(), h.numFrags, fragmask.Max, xk.ErrBadHeader)
	}
	switch {
	case h.flags&flagRequest != 0:
		return p.serveRequest(h, m, lls)
	case h.flags&(flagReply|flagAck) != 0:
		return p.clientReceive(h, m)
	default:
		return fmt.Errorf("%s: flags %#04x: %w", p.Name(), h.flags, xk.ErrBadHeader)
	}
}

// clientReceive handles replies and explicit acks arriving at the client
// side.
func (p *Protocol) clientReceive(h header, m *msg.Msg) error {
	if int(h.channel) >= len(p.channels) {
		return fmt.Errorf("%s: channel %d: %w", p.Name(), h.channel, xk.ErrBadHeader)
	}
	// Every reply or ack teaches us the server's current incarnation;
	// the next call's epoch hint is built from it.
	p.host.NotePeerBoot(h.srvrHost, h.bootID)
	cs := p.channels[h.channel]
	if !cs.slot.Accept(h.seq) {
		// A stale reply to an earlier incarnation of the channel:
		// at-most-once filtering on the client side.
		trace.Printf(trace.Events, p.Name(), "drop stale chan=%d seq=%d", h.channel, h.seq)
		return nil
	}
	if h.flags&flagAck != 0 {
		p.ctr.acksReceived.Add(1)
		// frag_mask reports which request fragments the server has;
		// only the missing ones go out on the next retransmission.
		cs.slot.Ack(h.fragMask)
		return nil
	}
	// Reply fragment. A reply that is one fragment is complete as it
	// stands and never enters a collector — unless one is already
	// collecting this sequence number, which a frame claiming to be the
	// whole message contradicts; that frame goes through the collector
	// and its checks like any other.
	full := m
	if !oneFragment(h) || cs.reply.collecting(h.seq) {
		if !cs.reply.collecting(h.seq) {
			cs.reply.start(h.seq, h.numFrags)
		}
		if !cs.reply.add(h.fragMask, m) {
			cs.slot.Unlock()
			return nil
		}
		full = cs.reply.assemble()
	}
	switch {
	case h.flags&flagRebooted != 0:
		p.ctr.peerReboots.Add(1)
		cs.slot.Deliver(nil, &PeerRebootedError{Host: h.srvrHost, BootID: h.bootID})
	case h.flags&flagError != 0:
		cs.slot.Deliver(nil, &RemoteError{Msg: string(full.Bytes())})
	default:
		cs.slot.Deliver(full, nil)
	}
	return nil
}
