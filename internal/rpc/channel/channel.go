// Package channel is CHANNEL, the middle layer of the decomposed Sprite
// RPC (§3.2): it "pairs request messages with reply messages while
// preserving at most once semantics". Each channel is opened as a
// separate x-kernel session, exactly as the paper describes, and carries
// one outstanding request at a time; the implicit-acknowledgement
// machinery (new request acks previous reply, reply acks request) lives
// here.
//
// CHANNEL's only structural difficulty as a separate protocol is "to
// tune its timeout mechanism to take into account that FRAGMENT exists
// as a separate protocol": its retransmission timer is a step function —
// small for single-fragment messages, long enough for multi-fragment
// messages that the fragmentation layer below is not still transmitting
// (and chasing missing fragments) when CHANNEL gives up and resends the
// whole message. A CHANNEL retransmission deliberately goes back through
// the layer below as an independent message with a fresh FRAGMENT
// sequence number.
//
// The header follows the appendix CHANNEL_HDR:
//
//	flags(2) channel(2) protocol_num(4) sequence_num(4) error(2) boot_id(4)
//
// Like FRAGMENT's, it carries its own protocol number field so multiple
// high-level protocols can use it; note the deliberately duplicated
// sequence number — "the layered version duplicates certain fields; e.g.,
// both FRAGMENT and CHANNEL have their own sequence number field".
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/trace"
	"xkernel/internal/xk"
)

// HeaderLen is the CHANNEL_HDR size.
const HeaderLen = 18

// ID is the channel-number participant component.
type ID uint16

// Flag bits.
const (
	flagRequest   uint16 = 1 << 0
	flagReply     uint16 = 1 << 1
	flagAck       uint16 = 1 << 2
	flagPleaseAck uint16 = 1 << 3
)

// Error codes carried in the error field of replies. In requests the
// same field carries the client's epoch hint: the low 16 bits of the
// server boot id the client last observed, or 0 for "unknown". A server
// whose boot id no longer matches a non-zero hint rejects the request
// with errRebooted instead of executing it — that is how a request
// retransmitted across a server crash is kept from executing a second
// time in the new incarnation (at-most-once across reboots, §3.2).
const (
	errOK       uint16 = 0
	errRemote   uint16 = 1 // reply payload is an error string
	errRebooted uint16 = 2 // server rebooted since the client's epoch hint
)

// RemoteError is a failure reported by the peer through the error field.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "channel: remote error: " + e.Msg }

// PeerRebootedError reports that the server crashed and rebooted while
// a call was outstanding. The call executed at most once — either in
// the old incarnation (its reply died with the crash) or not at all
// (the new incarnation rejected the stale retransmission). It matches
// errors.Is(err, xk.ErrPeerRebooted).
type PeerRebootedError struct {
	// Host is the rebooted server.
	Host xk.IPAddr
	// BootID is the server's new boot incarnation.
	BootID uint32
}

func (e *PeerRebootedError) Error() string {
	return fmt.Sprintf("channel: peer %s rebooted (boot id now %d)", e.Host, e.BootID)
}

// Is makes errors.Is(err, xk.ErrPeerRebooted) true.
func (e *PeerRebootedError) Is(target error) bool { return target == xk.ErrPeerRebooted }

// ErrChannelBusy is returned by Call when the channel already has a
// request outstanding (one request per channel; concurrency is SELECT's
// job). It is wrapped with the channel number: match with errors.Is.
var ErrChannelBusy = errors.New("channel busy: one request per channel")

// NoRetries configures MaxRetries to mean literally none: the request
// is sent once and the call fails on the first timeout. (Zero keeps the
// default; any negative value behaves like NoRetries.)
const NoRetries = -1

// Config parameterizes the protocol.
type Config struct {
	// RetransmitBase is the single-fragment timeout step; zero means
	// 50ms.
	RetransmitBase time.Duration
	// RetransmitPerFrag is added per expected fragment beyond the
	// first (the step function); zero means 20ms.
	RetransmitPerFrag time.Duration
	// MaxRetries bounds request retransmissions; zero means 8,
	// NoRetries (or any negative value) means none.
	MaxRetries int
	// BootID is this host's boot incarnation; zero means 1.
	BootID uint32
	// Proto is CHANNEL's number on the layer below; zero means
	// ip.ProtoChannel.
	Proto ip.ProtoNum
	// Clock drives retransmission timers; nil means the real clock.
	Clock event.Clock
	// Retry shapes the retransmission schedule around the step-function
	// base interval; nil means the paper's constant-interval policy
	// (retry.Step).
	Retry retry.Policy
	// Ledger records executed requests and their framed replies for
	// duplicate suppression; nil means a fresh bounded in-memory
	// ledger (the paper's volatile semantics). A durable ledger
	// (ledger.File) extends at-most-once across crashes of this host:
	// requests the old incarnation executed are answered from the
	// recovered ledger byte-for-byte instead of widening to
	// errRebooted.
	Ledger ledger.ExecLedger
}

func (c *Config) fill() {
	if c.RetransmitBase == 0 {
		c.RetransmitBase = 50 * time.Millisecond
	}
	if c.RetransmitPerFrag == 0 {
		c.RetransmitPerFrag = 20 * time.Millisecond
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
		c.Proto = ip.ProtoChannel
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
	RequestsServed, RemoteErrors               int64
	// StaleEpochRejects counts requests this server refused to execute
	// because their epoch hint named an earlier boot incarnation.
	StaleEpochRejects int64
	// LedgerReplays counts the subset of ReplayedReplies answered from
	// the execution ledger across a reboot — requests a previous
	// incarnation executed whose cached reply survived the crash.
	LedgerReplays int64
	// PeerReboots counts calls this client failed with
	// PeerRebootedError.
	PeerReboots int64
	// StaleReplies counts handler replies refused (amo.ErrStaleReply).
	StaleReplies int64
}

// header is the decoded CHANNEL_HDR.
type header struct {
	flags    uint16
	channel  uint16
	protoNum uint32
	seq      uint32
	errCode  uint16
	bootID   uint32
}

func (h *header) encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.flags)
	binary.BigEndian.PutUint16(b[2:4], h.channel)
	binary.BigEndian.PutUint32(b[4:8], h.protoNum)
	binary.BigEndian.PutUint32(b[8:12], h.seq)
	binary.BigEndian.PutUint16(b[12:14], h.errCode)
	binary.BigEndian.PutUint32(b[14:18], h.bootID)
}

func decodeHeader(b []byte) header {
	var h header
	h.flags = binary.BigEndian.Uint16(b[0:2])
	h.channel = binary.BigEndian.Uint16(b[2:4])
	h.protoNum = binary.BigEndian.Uint32(b[4:8])
	h.seq = binary.BigEndian.Uint32(b[8:12])
	h.errCode = binary.BigEndian.Uint16(b[12:14])
	h.bootID = binary.BigEndian.Uint32(b[14:18])
	return h
}

// Protocol is the CHANNEL protocol object.
//
// Locking discipline (DESIGN.md §4): state written at bind time (open,
// enable, close, reboot) and read per message is published with an atomic
// store and read with an atomic load; a mutex on the fault-free call path
// needs a reason. Counters are atomic words; enables is an immutable
// snapshot an enable copies under bindMu; clients is a pmap, whose
// last-key cache answers a channel's replies without a lock. What a
// fault-free call still locks makes at-most-once atomic, per
// conversation, and is the at-most-once core's (the client slot, the
// server channel) or the ledger's.
type Protocol struct {
	xk.BaseProtocol
	cfg Config
	llp xk.Protocol

	ctr  statCounters
	host amo.Host // boot id, peer boots, server channels: the at-most-once core

	bindMu  sync.Mutex // serialises the writers of enables
	enables atomic.Pointer[map[ip.ProtoNum]xk.Protocol]

	clients *pmap.Map // proto(1) ++ chan(2) ++ remote(4) → *Session
}

// statCounters mirrors Stats with atomic cells so the hot paths never
// take a lock to count.
type statCounters struct {
	calls, retransmits, acksSent, acksReceived atomic.Int64
	remoteErrors, peerReboots                  atomic.Int64

	// Instantaneous gauges, distinct from the monotone counters above:
	// callsInFlight is calls currently blocked in Call, and
	// retransInFlight is the subset that has retransmitted at least once
	// and not yet resolved — the "stuck calls" gauge that rises when the
	// wire degrades and falls back to zero as the stack converges.
	callsInFlight   atomic.Int64
	retransInFlight atomic.Int64
}

// New creates CHANNEL above llp, which must take VIP-shaped participants
// (FRAGMENT, VIPsize, IP, VIP all qualify — the substitutability the
// uniform interface buys).
func New(name string, llp xk.Protocol, cfg Config) (*Protocol, error) {
	cfg.fill()
	p := &Protocol{
		BaseProtocol: xk.BaseProtocol{ProtoName: name},
		cfg:          cfg,
		llp:          llp,
		clients:      pmap.New(16),
	}
	p.host.Init(name, cfg.BootID, cfg.Ledger)
	p.enables.Store(&map[ip.ProtoNum]xk.Protocol{})
	if err := llp.OpenEnable(p, xk.LocalOnly(xk.NewParticipant(cfg.Proto))); err != nil {
		return nil, fmt.Errorf("%s: enable: %w", name, err)
	}
	return p, nil
}

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
		RemoteErrors:      p.ctr.remoteErrors.Load(),
		StaleEpochRejects: n.StaleEpochRejects,
		LedgerReplays:     n.LedgerReplays,
		PeerReboots:       p.ctr.peerReboots.Load(),
		StaleReplies:      n.StaleReplies,
	}
}

// Ledger exposes the execution ledger this protocol records to.
func (p *Protocol) Ledger() ledger.ExecLedger { return p.cfg.Ledger }

// CallsInFlight reports how many calls are currently blocked in Call.
func (p *Protocol) CallsInFlight() int64 { return p.ctr.callsInFlight.Load() }

// RetransInFlight reports how many in-flight calls have retransmitted
// at least once and are still unresolved.
func (p *Protocol) RetransInFlight() int64 { return p.ctr.retransInFlight.Load() }

// ClientChannels reports the number of open client channel sessions.
func (p *Protocol) ClientChannels() int64 { return int64(p.clients.Len()) }

// ServerChannels reports the number of live server-side channel states.
func (p *Protocol) ServerChannels() int64 { return int64(p.host.Chans()) }

// RegisterGauges adds the protocol's live-state gauges to set under
// prefix ("<prefix>.calls_inflight", ".retrans_inflight",
// ".client_chans", ".server_chans") plus the client-channel map's
// per-shard occupancy ("<prefix>.clients.*"). A nil set is a no-op.
func (p *Protocol) RegisterGauges(set *gauge.Set, prefix string) {
	set.Register(prefix+".calls_inflight", p.CallsInFlight)
	set.Register(prefix+".retrans_inflight", p.RetransInFlight)
	set.Register(prefix+".client_chans", p.ClientChannels)
	set.Register(prefix+".server_chans", p.ServerChannels)
	p.clients.RegisterGauges(set, prefix+".clients")
	ledger.RegisterGauges(set, prefix, p.cfg.Ledger)
}

// BootID reports the current boot incarnation.
func (p *Protocol) BootID() uint32 { return p.host.Boot() }

// Reboot simulates a crash of this host (amo.Host.Reboot).
func (p *Protocol) Reboot() { p.host.Reboot() }

// PeerBootID reports the last boot incarnation observed from host in a
// reply or ack header, or 0 if the host has never answered.
func (p *Protocol) PeerBootID(host xk.IPAddr) uint32 { return p.host.PeerBoot(host) }

// setEnable publishes enables with proto bound to hlp, or unbound when
// hlp is nil.
func (p *Protocol) setEnable(proto ip.ProtoNum, hlp xk.Protocol) {
	p.bindMu.Lock()
	defer p.bindMu.Unlock()
	next := maps.Clone(*p.enables.Load())
	if hlp != nil {
		next[proto] = hlp
	} else {
		delete(next, proto)
	}
	p.enables.Store(&next)
}

// Control: CHANNEL never pushes more than its client's message plus one
// header; its answer to CtlHLPMaxMsg defers to the layer below it, since
// CHANNEL itself adds only a header. It reports the lower layer's MTU
// minus its header as its own.
func (p *Protocol) Control(op xk.ControlOp, arg any) (any, error) {
	switch op {
	case xk.CtlHLPMaxMsg:
		// When a virtual protocol below asks, CHANNEL's messages
		// are bounded by what its own lower layer accepts.
		v, err := p.llp.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int), nil
	case xk.CtlGetMTU:
		v, err := p.llp.Control(xk.CtlGetMTU, nil)
		if err != nil {
			return nil, err
		}
		return v.(int) - HeaderLen, nil
	case xk.CtlGetBootID:
		return p.BootID(), nil
	default:
		return nil, xk.ErrOpNotSupported
	}
}

// ClientKey builds the client-session map key: proto(1) ++ chan(2) ++
// remote(4). REQUEST_REPLY keys its sessions the same way.
func ClientKey(k *pmap.Key, proto ip.ProtoNum, id uint16, remote xk.IPAddr) []byte {
	return k.Reset().U8(uint8(proto)).U16(id).Bytes(remote[:]).Built()
}

// OpenParts reads the participants Open takes: local=[ip.ProtoNum, ID]
// (the high-level protocol's number, then the channel number),
// remote=[xk.IPAddr]. REQUEST_REPLY's Open takes the same shape, so
// SUN_SELECT composes over either.
func OpenParts(ps *xk.Participants) (proto ip.ProtoNum, id uint16, remote xk.IPAddr, err error) {
	lp, rp := ps.Local.Clone(), ps.Remote.Clone()
	cid, err := xk.PopAddr[ID](&lp, "channel id")
	if err == nil {
		proto, err = xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	}
	if err == nil {
		remote, err = xk.PopAddr[xk.IPAddr](&rp, "remote host")
	}
	return proto, uint16(cid), remote, err
}

// Open creates the client end of one channel (parts: OpenParts).
func (p *Protocol) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	proto, id, remote, err := OpenParts(ps)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", p.Name(), err)
	}
	var kb pmap.Key
	return pmap.Open(p.clients, ClientKey(&kb, proto, id, remote), func() (xk.Session, error) {
		lls, err := p.llp.Open(p, xk.NewParticipants(xk.NewParticipant(p.cfg.Proto), xk.NewParticipant(remote)))
		if err != nil {
			return nil, err
		}
		trace.Printf(trace.Events, p.Name(), "open chan=%d proto=%d remote=%s", id, proto, remote)
		return newSession(p, hlp, proto, id, remote, lls), nil
	}, func(s xk.Session) { _ = s.(*Session).Down(0).Close() })
}

// OpenEnable registers hlp as the server for its protocol number.
// parts: local=[ip.ProtoNum].
func (p *Protocol) OpenEnable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_enable: %w", p.Name(), err)
	}
	p.setEnable(proto, hlp)
	return nil
}

// OpenDisable revokes an enable.
func (p *Protocol) OpenDisable(hlp xk.Protocol, ps *xk.Participants) error {
	lp := ps.Local.Clone()
	proto, err := xk.PopAddr[ip.ProtoNum](&lp, "protocol number")
	if err != nil {
		return fmt.Errorf("%s: open_disable: %w", p.Name(), err)
	}
	p.setEnable(proto, nil)
	return nil
}

// OpenDone accepts lower sessions created passively for our enable.
func (p *Protocol) OpenDone(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
	return nil
}

// Demux dispatches on the flags field: requests to the server half,
// replies and acks to the waiting client channel.
func (p *Protocol) Demux(lls xk.Session, m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name(), xk.ErrBadHeader)
	}
	h := decodeHeader(hb)
	peer, err := peerHost(lls)
	if err != nil {
		return fmt.Errorf("%s: peer unknown: %w", p.Name(), err)
	}
	switch {
	case h.flags&flagRequest != 0:
		return p.serveRequest(h, peer, m, lls)
	case h.flags&(flagReply|flagAck) != 0:
		return p.clientReceive(h, peer, m)
	default:
		return fmt.Errorf("%s: flags %#04x: %w", p.Name(), h.flags, xk.ErrBadHeader)
	}
}

// peerHost learns the remote host from the lower session — the
// information-loss pattern of §5: the layered protocol asks through
// control what the monolithic one reads from its own header.
func peerHost(lls xk.Session) (xk.IPAddr, error) {
	v, err := lls.Control(xk.CtlGetPeerHost, nil)
	if err != nil {
		return xk.IPAddr{}, err
	}
	a, ok := v.(xk.IPAddr)
	if !ok {
		return xk.IPAddr{}, fmt.Errorf("peer host has type %T", v)
	}
	return a, nil
}

// clientReceive completes or acknowledges the call outstanding on a
// channel.
func (p *Protocol) clientReceive(h header, peer xk.IPAddr, m *msg.Msg) error {
	if h.protoNum > 0xff {
		return fmt.Errorf("%s: protocol number %d: %w", p.Name(), h.protoNum, xk.ErrBadHeader)
	}
	var kb pmap.Key
	v, ok := p.clients.Resolve(ClientKey(&kb, ip.ProtoNum(h.protoNum), h.channel, peer))
	if !ok {
		trace.Printf(trace.Events, p.Name(), "drop reply for unknown chan=%d proto=%d peer=%s", h.channel, h.protoNum, peer)
		return nil
	}
	s := v.(*Session)
	// Every reply and ack teaches the client the server's current
	// incarnation; the next call's epoch hint names it.
	p.host.NotePeerBoot(s.remote, h.bootID)
	if !s.slot.Accept(h.seq) {
		trace.Printf(trace.Events, p.Name(), "drop stale chan=%d seq=%d", s.id, h.seq)
		return nil
	}
	switch {
	case h.flags&flagAck != 0:
		p.ctr.acksReceived.Add(1)
		s.slot.Ack(1) // the one fragment
	case h.errCode == errOK:
		s.slot.Deliver(m, nil)
	case h.errCode == errRebooted:
		p.ctr.peerReboots.Add(1)
		s.slot.Deliver(nil, &PeerRebootedError{Host: s.remote, BootID: h.bootID})
	default:
		p.ctr.remoteErrors.Add(1)
		s.slot.Deliver(nil, &RemoteError{Msg: string(m.Bytes())})
	}
	return nil
}
