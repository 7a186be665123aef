// Package bench builds the protocol configurations the paper's
// experiments measure (§4) and provides the harness that regenerates
// Tables I–III and the §4.3 dynamic-layer-removal result.
//
// Every configuration is assembled from the same building blocks the
// rest of the repository uses — the point of the exercise is that these
// stacks differ only in which protocols are composed, never in the
// protocols themselves.
package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/obs"
	"xkernel/internal/obs/flight"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/obs/span"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/udp"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/rpc/nrpc"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/rpc/sunrpc"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// Commands served by every test server.
const (
	// CmdNull returns a null reply regardless of the request payload —
	// the paper's workload for both latency (null request) and
	// throughput (1k–16k requests) tests.
	CmdNull uint16 = 1
	// CmdEcho returns the request payload, for correctness tests.
	CmdEcho uint16 = 2
)

// Stack names the protocol configurations, written the way the paper
// writes them.
type Stack string

// The measured configurations.
const (
	NRPC           Stack = "N_RPC"                       // native-style analogue (see package nrpc)
	MRPCEth        Stack = "M_RPC-ETH"                   // Table I
	MRPCIP         Stack = "M_RPC-IP"                    // Table I
	MRPCVIP        Stack = "M_RPC-VIP"                   // Tables I, II
	LRPCVIP        Stack = "L_RPC-VIP"                   // Table II (SELECT-CHANNEL-FRAGMENT-VIP)
	VIPOnly        Stack = "VIP"                         // Table III
	FragVIP        Stack = "FRAGMENT-VIP"                // Table III
	ChanFragVIP    Stack = "CHANNEL-FRAGMENT-VIP"        // Table III
	SelChanFragVIP Stack = "SELECT-CHANNEL-FRAGMENT-VIP" // Table III (= L_RPC-VIP)
	SelChanVIPsize Stack = "SELECT-CHANNEL-VIPsize"      // §4.3, Figure 3(b)
	UDPIP          Stack = "UDP-IP-ETH"                  // §1 round-trip claim
	SunRPCVIP      Stack = "SUNRPC-FRAGMENT-VIP"         // §3.3 mix-and-match composition
)

// Endpoint is a client able to perform the paper's test operation: a
// round trip carrying payload out and a null (or echoed) reply back.
type Endpoint interface {
	// RoundTrip sends payload to the server's null procedure and
	// returns when the reply arrives.
	RoundTrip(payload []byte) error
	// Echo sends payload to the echo procedure and returns the reply.
	Echo(payload []byte) ([]byte, error)
}

// Testbed is a built configuration: two hosts on an isolated simulated
// ethernet with the stack composed on both, plus the client endpoint.
type Testbed struct {
	Stack  Stack
	Client *stacks.Host
	Server *stacks.Host
	// Wire is the transport carrying frames between the two hosts —
	// the seam every testbed is built over. With the default builder it
	// is the simulator; BuildOn accepts any backend.
	Wire wire.Wire
	// Network is the simulator behind Wire — directly, or behind a
	// wire.Injector — when the backend is the simulator, nil otherwise
	// (a real-socket wire has no virtual clock or capture taps to
	// expose). Scripted faults are not its business on any backend: the
	// injector is the fault board.
	Network *sim.Network
	End     Endpoint

	// MaxMsg is the largest payload the endpoint accepts.
	MaxMsg int

	// NewEndpoint returns an independent client endpoint for concurrent
	// workloads; id distinguishes clients on stacks where each needs its
	// own lower channel (bare CHANNEL allows one outstanding call per
	// channel id). Pool-backed stacks return a shared, concurrency-safe
	// endpoint for every id. Nil on stacks whose endpoint has no notion
	// of concurrent calls (the push and UDP round-trip rigs).
	NewEndpoint func(id int) (Endpoint, error)

	// AtMostOnce reports whether the stack's reliability layer
	// guarantees at-most-once execution (CHANNEL and the Sprite
	// engines do; Sun RPC's REQUEST_REPLY is zero-or-more).
	AtMostOnce bool

	// Meter aggregates per-layer counters when the testbed was built
	// with BuildInstrumented; nil otherwise.
	Meter *obs.Meter
	// Collect copies protocol-internal statistics (retransmission and
	// stale-epoch-reject counters) into the meter; call it before
	// snapshotting. Nil when the testbed is uninstrumented or the stack
	// keeps no such stats.
	Collect func()

	// Chaos hooks — populated for stacks whose reliability layer has
	// crash/reboot semantics (CHANNEL, M.RPC, N.RPC); nil elsewhere.
	// The chaos engine drives crash scenarios and checks invariants
	// through them.

	// ServerReboot models a server crash and restart at the RPC layer:
	// the boot id advances and all server-side channel state is lost.
	ServerReboot func()
	// ServerExecs counts requests the server's handlers actually ran —
	// the ledger the at-most-once invariant is checked against.
	ServerExecs func() int64
	// StaleRejects counts requests the server refused to execute
	// because their boot-epoch hint named a dead incarnation.
	StaleRejects func() int64
	// Retransmits counts the client's wire-level retransmissions.
	Retransmits func() int64
	// ClientReboot models a client crash and restart at the RPC layer:
	// the client's boot id advances, telling the server to retire the
	// dead incarnation's channel state and ledger entries.
	ClientReboot func()

	// Ledger is the server's execution ledger when the stack name
	// carried a "+<ledger>" suffix (see ParseStack); nil means the
	// protocol's default bounded in-memory ledger.
	Ledger ledger.ExecLedger
	// LedgerStats snapshots the server execution ledger's counters —
	// set for every at-most-once stack, suffixed or not.
	LedgerStats func() ledger.Stats
	// LedgerReplays counts replies the server answered from its ledger
	// across a reboot (executed by a dead incarnation, not re-run).
	LedgerReplays func() int64

	// gaugeHooks registers the live-state gauges each builder's stack
	// exposes; RegisterGauges runs them against the caller's set.
	gaugeHooks []func(*gauge.Set)
	// closers tear down build-allocated resources; run by Close.
	closers []func()
}

// RegisterGauges adds every gauge the testbed exposes to set: the
// simulated network's delivery/queue state ("net.*") plus whatever
// live-state gauges the stack's protocols export — CHANNEL in-flight
// calls and retransmit state, SELECT pool occupancy, and the channel
// map's per-shard occupancy. Stacks without gauge-bearing layers
// contribute only the network series. A nil set is a no-op.
func (tb *Testbed) RegisterGauges(set *gauge.Set) {
	if set == nil {
		return
	}
	if tb.Network != nil {
		tb.Network.RegisterGauges(set, "net")
	} else if tb.Wire != nil {
		// A non-simulated backend has no queue/clock internals to
		// expose, but its frame counters are still live state worth a
		// series each.
		w := tb.Wire
		set.Register("net.frames_sent", func() int64 { return w.Stats().FramesSent })
		set.Register("net.frames_delivered", func() int64 { return w.Stats().FramesDelivered })
		set.Register("net.frames_dropped", func() int64 { return w.Stats().FramesDropped })
	}
	for _, hook := range tb.gaugeHooks {
		hook(set)
	}
}

// SetFlight attaches a flight recorder to the simulated wire so the
// anomalies the simulator itself causes (seeded losses, duplicates,
// corruptions, reorder holds) land in the black box. Attaching a recorder
// never changes the bytes on the wire; clean segments keep the lock-free
// send path. Scripted vetoes never reach the segment: on every backend
// the injector's OnDrop hook is their flight feed, and on a non-simulated
// backend, which has no anomalies of its own to report, this is a no-op.
func (tb *Testbed) SetFlight(r *flight.Recorder) {
	if tb.Network != nil {
		tb.Network.SetFlight(r)
	}
}

func (tb *Testbed) addGauges(hook func(*gauge.Set)) {
	tb.gaugeHooks = append(tb.gaugeHooks, hook)
}

// ServerAddr is where every testbed's server lives.
var ServerAddr = xk.IP(10, 0, 0, 2)

// SetSpans attaches a span recorder to every capture point the testbed
// owns: the meter's instrumented boundaries, the simulated wire, and
// the server-side handler wrappers. Only instrumented testbeds
// (BuildInstrumented) have boundaries to capture at; on a bare testbed
// this wires the wire spans alone.
func (tb *Testbed) SetSpans(r *span.Recorder) {
	if tb.Meter != nil {
		tb.Meter.SetSpans(r)
	}
	if tb.Network != nil {
		tb.Network.SetSpans(r)
	}
}

// spanHandler wraps a server procedure body so its execution is
// recorded as a handler span (the paper's "user stub + procedure"
// share of the round trip) when the meter carries an enabled recorder.
func spanHandler(m *obs.Meter, layer string, h func(uint16, *msg.Msg) (*msg.Msg, error)) func(uint16, *msg.Msg) (*msg.Msg, error) {
	if m == nil {
		return h
	}
	return func(cmd uint16, args *msg.Msg) (*msg.Msg, error) {
		rec := m.Spans()
		if !rec.Enabled() {
			return h(cmd, args)
		}
		sid := rec.BeginMsg(layer, span.DirHandler, obs.EnsureMsgID(args), args)
		reply, err := h(cmd, args)
		rec.EndMsg(sid, args, span.ErrString(err))
		return reply, err
	}
}

// Build assembles the named configuration over a fresh two-host
// simulated network.
func Build(stack Stack, netCfg sim.Config, clock event.Clock) (*Testbed, error) {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	return build(stack, sim.Factory(netCfg), clock, nil)
}

// BuildOn assembles the named configuration over whatever transport the
// factory makes — the simulator, real UDP sockets, or a fault injector
// wrapping either. The testbed owns the wire and closes it.
func BuildOn(stack Stack, f wire.Factory, clock event.Clock) (*Testbed, error) {
	return build(stack, f, clock, nil)
}

// BuildInstrumentedOn is BuildOn with an obs.Wrap at every protocol
// boundary, like BuildInstrumented.
func BuildInstrumentedOn(stack Stack, f wire.Factory, clock event.Clock) (*Testbed, *obs.Meter, error) {
	m := obs.NewMeter()
	tb, err := build(stack, f, clock, m)
	if err != nil {
		return nil, nil, err
	}
	return tb, m, nil
}

// BuildInstrumented assembles the named configuration with an obs.Wrap
// interposed at every protocol boundary below the endpoint, all feeding
// the returned meter. The wire bytes are identical to Build's (the wrap
// is a passthrough), but the extra bookkeeping costs time — keep using
// Build for timing and reserve instrumented testbeds for counting,
// tracing, and per-layer breakdowns.
func BuildInstrumented(stack Stack, netCfg sim.Config, clock event.Clock) (*Testbed, *obs.Meter, error) {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	m := obs.NewMeter()
	tb, err := build(stack, sim.Factory(netCfg), clock, m)
	if err != nil {
		return nil, nil, err
	}
	return tb, m, nil
}

func build(stack Stack, f wire.Factory, clock event.Clock, m *obs.Meter) (*Testbed, error) {
	base, spec, err := ParseStack(stack)
	if err != nil {
		return nil, err
	}
	client, server, w, err := stacks.TwoHostsOn(f, clock)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Stack: stack, Client: client, Server: server, Wire: w, Network: sim.Unwrap(w), MaxMsg: 16 * 1024, Meter: m}
	tb.closers = append(tb.closers, func() { w.Close() })
	if spec != nil {
		if err := tb.attachLedger(spec, clock); err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", stack, err)
		}
	}

	switch base {
	case NRPC:
		err = buildNRPC(tb, clock, m)
	case MRPCEth, MRPCIP, MRPCVIP:
		err = buildMRPC(tb, clock, m)
	case LRPCVIP, SelChanFragVIP:
		err = buildLayered(tb, clock, 4, m)
	case ChanFragVIP:
		err = buildLayered(tb, clock, 3, m)
	case FragVIP:
		err = buildLayered(tb, clock, 2, m)
	case VIPOnly:
		err = buildLayered(tb, clock, 1, m)
	case SelChanVIPsize:
		err = buildVIPsize(tb, clock, m)
	case SunRPCVIP:
		err = buildSunRPC(tb, clock, m)
	case UDPIP:
		tb.MaxMsg = 60 * 1024
		err = buildUDP(tb, m)
	default:
		tb.Close()
		return nil, fmt.Errorf("bench: unknown stack %q", stack)
	}
	if err != nil {
		tb.Close()
		return nil, fmt.Errorf("bench: building %s: %w", stack, err)
	}
	if spec != nil && tb.LedgerStats == nil {
		tb.Close()
		return nil, fmt.Errorf("bench: stack %s has no at-most-once layer to carry a ledger", base)
	}
	return tb, nil
}

// wrapIf interposes an instrumentation boundary above p when a meter is
// present; uninstrumented builds compose the bare protocol.
func wrapIf(m *obs.Meter, p xk.Protocol) xk.Protocol {
	if m == nil {
		return p
	}
	return obs.Wrap(p.Name(), p, m)
}

// benchFragCfg configures FRAGMENT for timing runs: protocol behaviour is
// unchanged on a loss-free wire, but the send-hold window is short so the
// saved copies of swept 16k messages do not pile up as live heap and
// distort the garbage collector's behaviour during later measurements.
func benchFragCfg(clock event.Clock) fragment.Config {
	return fragment.Config{Clock: clock, SendHold: 10 * time.Millisecond}
}

// newVIP composes a VIP instance for one host; with a meter the two
// lower boundaries (ethernet and IP paths) are instrumented.
func newVIP(h *stacks.Host, m *obs.Meter) (*vip.Protocol, error) {
	return vip.New(h.Name+"/vip", wrapIf(m, h.Eth), wrapIf(m, h.IP), h.ARP)
}

func hostAddr(h *stacks.Host) xk.IPAddr {
	v, err := h.IP.Control(xk.CtlGetMyHost, nil)
	if err != nil {
		panic(err)
	}
	return v.(xk.IPAddr)
}

// ---- M.RPC configurations (Table I) ----

type mrpcEndpoint struct{ s *mrpc.Session }

func (e *mrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *mrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	return e.s.CallBytes(CmdEcho, payload)
}

func buildMRPC(tb *Testbed, clock event.Clock, m *obs.Meter) error {
	client, server := tb.Client, tb.Server
	lower := func(h *stacks.Host) (xk.Protocol, error) {
		switch tb.Stack.Base() {
		case MRPCEth:
			return vip.NewEthMap(h.Name+"/ethmap", h.Eth, h.ARP), nil
		case MRPCIP:
			return h.IP, nil
		default:
			return newVIP(h, m)
		}
	}
	cfg := mrpc.Config{Clock: clock}

	cllp, err := lower(client)
	if err != nil {
		return err
	}
	cli, err := mrpc.New(client.Name+"/mrpc", wrapIf(m, cllp), hostAddr(client), cfg)
	if err != nil {
		return err
	}
	sllp, err := lower(server)
	if err != nil {
		return err
	}
	// Only the server executes requests, so only its engine gets the
	// testbed's ledger; the client keeps the default.
	scfg := cfg
	scfg.Ledger = tb.Ledger
	srv, err := mrpc.New(server.Name+"/mrpc", wrapIf(m, sllp), hostAddr(server), scfg)
	if err != nil {
		return err
	}
	execs := registerMRPCHandlers(srv, m)

	app := xk.NewApp("client/app", nil)
	app.MaxMsg = 1500
	s, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(ServerAddr)})
	if err != nil {
		return err
	}
	if m != nil {
		tb.Collect = func() {
			m.Layer(cli.Name()).Retransmits.Store(cli.Stats().Retransmits)
			m.Layer(srv.Name()).Retransmits.Store(srv.Stats().Retransmits)
			m.Layer(srv.Name()).Rejects.Store(srv.Stats().StaleEpochRejects)
		}
	}
	tb.ServerReboot = srv.Reboot
	tb.ServerExecs = execs.Load
	tb.StaleRejects = func() int64 { return srv.Stats().StaleEpochRejects }
	tb.Retransmits = func() int64 { return cli.Stats().Retransmits }
	tb.ClientReboot = cli.Reboot
	tb.LedgerStats = func() ledger.Stats { return srv.Ledger().Stats() }
	tb.LedgerReplays = func() int64 { return srv.Stats().LedgerReplays }
	tb.addGauges(func(set *gauge.Set) {
		ledger.RegisterGauges(set, srv.Name(), srv.Ledger())
	})
	tb.End = &mrpcEndpoint{s: s.(*mrpc.Session)}
	// The M.RPC session multiplexes its fixed channel pool internally,
	// so one endpoint serves any number of concurrent clients.
	tb.NewEndpoint = func(int) (Endpoint, error) { return tb.End, nil }
	tb.AtMostOnce = true
	return nil
}

func registerMRPCHandlers(srv *mrpc.Protocol, m *obs.Meter) *atomic.Int64 {
	execs := new(atomic.Int64)
	srv.Register(CmdNull, spanHandler(m, "server/handler", func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	}))
	srv.Register(CmdEcho, spanHandler(m, "server/handler", func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return args, nil
	}))
	return execs
}

// ---- N.RPC analogue ----

func buildNRPC(tb *Testbed, clock event.Clock, m *obs.Meter) error {
	build := func(h *stacks.Host, led ledger.ExecLedger) (*nrpc.Protocol, error) {
		llp := vip.NewEthMap(h.Name+"/ethmap", h.Eth, h.ARP)
		cfg := nrpc.Config{Clock: clock}
		cfg.RPC.Ledger = led
		return nrpc.New(h.Name+"/nrpc", wrapIf(m, llp), hostAddr(h), cfg)
	}
	cli, err := build(tb.Client, nil)
	if err != nil {
		return err
	}
	srv, err := build(tb.Server, tb.Ledger)
	if err != nil {
		return err
	}
	execs := new(atomic.Int64)
	srv.Register(CmdNull, spanHandler(m, "server/handler", func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	}))
	srv.Register(CmdEcho, spanHandler(m, "server/handler", func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return args, nil
	}))
	s, err := cli.OpenSession(ServerAddr)
	if err != nil {
		return err
	}
	// N.RPC runs on the monolithic Sprite engine, so the crash model
	// (and the execution ledger) is inherited from it.
	tb.ServerReboot = srv.Reboot
	tb.ServerExecs = execs.Load
	tb.StaleRejects = func() int64 { return srv.Stats().StaleEpochRejects }
	tb.Retransmits = func() int64 { return cli.Stats().Retransmits }
	tb.ClientReboot = cli.Reboot
	tb.LedgerStats = func() ledger.Stats { return srv.Ledger().Stats() }
	tb.LedgerReplays = func() int64 { return srv.Stats().LedgerReplays }
	tb.End = &nrpcEndpoint{s: s}
	tb.NewEndpoint = func(int) (Endpoint, error) { return tb.End, nil }
	tb.AtMostOnce = true
	return nil
}

type nrpcEndpoint struct{ s *nrpc.Session }

func (e *nrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *nrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	reply, err := e.s.Call(CmdEcho, msg.New(payload))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// ---- Layered configurations (Tables II and III) ----

// layeredParts are the composed protocols on one host, bottom-up.
type layeredParts struct {
	vip  *vip.Protocol
	frag *fragment.Protocol
	chn  *channel.Protocol
	sel  *selectp.Protocol
}

// buildLayeredHost composes depth layers over VIP on host h:
// 1=VIP, 2=FRAGMENT-VIP, 3=CHANNEL-FRAGMENT-VIP, 4=SELECT-CHANNEL-FRAGMENT-VIP.
// With a meter, every boundary between layers carries an obs.Wrap. led
// (nil for the default) becomes CHANNEL's execution ledger — the server
// host's, on the server side of a ledgered testbed.
func buildLayeredHost(h *stacks.Host, clock event.Clock, depth int, m *obs.Meter, led ledger.ExecLedger) (*layeredParts, error) {
	parts := &layeredParts{}
	var err error
	parts.vip, err = newVIP(h, m)
	if err != nil {
		return nil, err
	}
	if depth >= 2 {
		parts.frag, err = fragment.New(h.Name+"/fragment", wrapIf(m, parts.vip), hostAddr(h), benchFragCfg(clock))
		if err != nil {
			return nil, err
		}
	}
	if depth >= 3 {
		parts.chn, err = channel.New(h.Name+"/channel", wrapIf(m, parts.frag), channel.Config{Clock: clock, Ledger: led})
		if err != nil {
			return nil, err
		}
	}
	if depth >= 4 {
		parts.sel, err = selectp.New(h.Name+"/select", wrapIf(m, parts.chn), selectp.Config{})
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

func buildLayered(tb *Testbed, clock event.Clock, depth int, m *obs.Meter) error {
	cp, err := buildLayeredHost(tb.Client, clock, depth, m, nil)
	if err != nil {
		return err
	}
	sp, err := buildLayeredHost(tb.Server, clock, depth, m, tb.Ledger)
	if err != nil {
		return err
	}
	if m != nil && depth >= 3 {
		ccp, scp := cp.chn, sp.chn
		tb.Collect = func() {
			m.Layer(ccp.Name()).Retransmits.Store(ccp.Stats().Retransmits)
			m.Layer(scp.Name()).Retransmits.Store(scp.Stats().Retransmits)
			m.Layer(scp.Name()).Rejects.Store(scp.Stats().StaleEpochRejects)
		}
	}
	if depth >= 3 {
		ccp, scp := cp.chn, sp.chn
		tb.ServerReboot = scp.Reboot
		tb.StaleRejects = func() int64 { return scp.Stats().StaleEpochRejects }
		tb.Retransmits = func() int64 { return ccp.Stats().Retransmits }
		tb.ClientReboot = ccp.Reboot
		tb.LedgerStats = func() ledger.Stats { return scp.Ledger().Stats() }
		tb.LedgerReplays = func() int64 { return scp.Stats().LedgerReplays }
		tb.addGauges(func(set *gauge.Set) {
			ccp.RegisterGauges(set, ccp.Name())
			scp.RegisterGauges(set, scp.Name())
		})
	}
	if depth >= 4 {
		csel, ssel := cp.sel, sp.sel
		tb.addGauges(func(set *gauge.Set) {
			csel.RegisterGauges(set, csel.Name())
			ssel.RegisterGauges(set, ssel.Name())
		})
	}
	switch depth {
	case 4:
		// The endpoint drives SELECT directly — the wrap boundaries sit
		// below it, so the select session keeps its concrete type.
		tb.ServerExecs = registerSelectHandlers(sp.sel, m).Load
		app := xk.NewApp("client/app", nil)
		s, err := cp.sel.Open(app, &xk.Participants{Remote: xk.NewParticipant(ServerAddr)})
		if err != nil {
			return err
		}
		tb.End = &selectEndpoint{s: s.(*selectp.Session)}
		// SELECT's fixed channel pool arbitrates concurrent callers.
		tb.NewEndpoint = func(int) (Endpoint, error) { return tb.End, nil }
		tb.AtMostOnce = true
		return nil
	case 3:
		cchn, schn := wrapIf(m, cp.chn), wrapIf(m, sp.chn)
		execs, err := enableChannelServer(schn, m)
		if err != nil {
			return err
		}
		end, err := openChannelEndpoint(cchn, 0)
		if err != nil {
			return err
		}
		tb.End = end
		tb.ServerExecs = execs.Load
		// A bare CHANNEL permits one outstanding call per channel id, so
		// every concurrent client opens a channel of its own (id 0 is
		// taken by tb.End).
		tb.NewEndpoint = func(id int) (Endpoint, error) {
			return openChannelEndpoint(cchn, id+1)
		}
		tb.AtMostOnce = true
		return nil
	case 2:
		tb.End, err = newPushEndpoint(wrapIf(m, cp.frag), wrapIf(m, sp.frag), ip.ProtoRDG)
		return err
	default:
		tb.End, err = newPushEndpoint(wrapIf(m, cp.vip), wrapIf(m, sp.vip), ip.ProtoRDG)
		return err
	}
}

func registerSelectHandlers(sel *selectp.Protocol, m *obs.Meter) *atomic.Int64 {
	execs := new(atomic.Int64)
	sel.Register(CmdNull, spanHandler(m, "server/handler", func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	}))
	sel.Register(CmdEcho, spanHandler(m, "server/handler", func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return args, nil
	}))
	return execs
}

type selectEndpoint struct{ s *selectp.Session }

func (e *selectEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *selectEndpoint) Echo(payload []byte) ([]byte, error) {
	return e.s.CallBytes(CmdEcho, payload)
}

// ---- CHANNEL endpoint: request/reply without procedure selection ----

// channelEndpoint drives a bare CHANNEL session: the server side is an
// App that answers every request with a null reply (or an echo of the
// request for Echo, signalled by a one-byte prefix). The session is
// held by its synchronous-call shape rather than its concrete type so
// an instrumentation wrapper can stand in for it.
type channelEndpoint struct {
	s interface {
		Call(*msg.Msg) (*msg.Msg, error)
	}
}

// enableChannelServer installs the null/echo server app above srv and
// returns the execution counter.
func enableChannelServer(srv xk.Protocol, mtr *obs.Meter) (*atomic.Int64, error) {
	execs := new(atomic.Int64)
	serverApp := xk.NewApp("server/app", nil)
	deliver := func(s xk.Session, m *msg.Msg) error {
		// s is the channel ServerSession (possibly instrumented); Push
		// on it sends the reply for the request being delivered.
		execs.Add(1)
		kind, err := m.Pop(1)
		if err != nil {
			return s.Push(msg.Empty())
		}
		if kind[0] == 'e' {
			return s.Push(m)
		}
		return s.Push(msg.Empty())
	}
	serverApp.Deliver = deliver
	if mtr != nil {
		serverApp.Deliver = func(s xk.Session, m *msg.Msg) error {
			rec := mtr.Spans()
			if !rec.Enabled() {
				return deliver(s, m)
			}
			sid := rec.BeginMsg("server/handler", span.DirHandler, obs.EnsureMsgID(m), m)
			err := deliver(s, m)
			rec.EndMsg(sid, m, span.ErrString(err))
			return err
		}
	}
	if err := srv.OpenEnable(serverApp, xk.LocalOnly(xk.NewParticipant(ip.ProtoRDG))); err != nil {
		return nil, err
	}
	return execs, nil
}

// openChannelEndpoint opens one client channel with the given id above
// cli and wraps it as an Endpoint.
func openChannelEndpoint(cli xk.Protocol, id int) (Endpoint, error) {
	clientApp := xk.NewApp("client/app", nil)
	s, err := cli.Open(clientApp, xk.NewParticipants(
		xk.NewParticipant(ip.ProtoRDG, channel.ID(id)),
		xk.NewParticipant(ServerAddr),
	))
	if err != nil {
		return nil, err
	}
	caller, ok := s.(interface {
		Call(*msg.Msg) (*msg.Msg, error)
	})
	if !ok {
		return nil, fmt.Errorf("channel endpoint: session %T has no Call", s)
	}
	return &channelEndpoint{s: caller}, nil
}

func (e *channelEndpoint) RoundTrip(payload []byte) error {
	m := msg.New(payload)
	m.MustPush([]byte{'n'})
	_, err := e.s.Call(m)
	return err
}

func (e *channelEndpoint) Echo(payload []byte) ([]byte, error) {
	m := msg.New(payload)
	m.MustPush([]byte{'e'})
	reply, err := e.s.Call(m)
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// ---- Push endpoints: VIP alone and FRAGMENT-VIP (Table III rows 1–2) ----

// pushEndpoint measures round trips over protocols with no request/reply
// notion: the client pushes, the server's app pushes a null message
// back, the client's app signals completion. The paper's Table III rows
// for VIP and FRAGMENT-VIP are exactly this exchange.
type pushEndpoint struct {
	s     xk.Session
	reply chan *msg.Msg
}

func newPushEndpoint(cli, srv xk.Protocol, proto ip.ProtoNum) (Endpoint, error) {
	serverApp := xk.NewApp("server/app", nil)
	serverApp.MaxMsg = 1500
	serverApp.Deliver = func(s xk.Session, m *msg.Msg) error {
		return s.Push(msg.Empty())
	}
	if err := srv.OpenEnable(serverApp, xk.LocalOnly(xk.NewParticipant(proto))); err != nil {
		return nil, err
	}

	e := &pushEndpoint{reply: make(chan *msg.Msg, 1)}
	clientApp := xk.NewApp("client/app", nil)
	clientApp.MaxMsg = 1500
	clientApp.Deliver = func(s xk.Session, m *msg.Msg) error {
		select {
		case e.reply <- m:
		default:
		}
		return nil
	}
	// The server pushes its null reply through a passively created
	// session, so enable reception on the client too.
	if err := cli.OpenEnable(clientApp, xk.LocalOnly(xk.NewParticipant(proto))); err != nil {
		return nil, err
	}
	s, err := cli.Open(clientApp, xk.NewParticipants(
		xk.NewParticipant(proto),
		xk.NewParticipant(ServerAddr),
	))
	if err != nil {
		return nil, err
	}
	e.s = s
	return e, nil
}

func (e *pushEndpoint) RoundTrip(payload []byte) error {
	if err := e.s.Push(msg.New(payload)); err != nil {
		return err
	}
	select {
	case <-e.reply:
		return nil
	default:
		return fmt.Errorf("bench: push round trip: no reply (synchronous network expected)")
	}
}

func (e *pushEndpoint) Echo([]byte) ([]byte, error) {
	return nil, fmt.Errorf("bench: echo unsupported on push endpoint")
}

// ---- §4.3: SELECT-CHANNEL-VIPsize over {FRAGMENT-VIPaddr, VIPaddr} ----

func buildVIPsizeHost(h *stacks.Host, clock event.Clock, m *obs.Meter, led ledger.ExecLedger) (*selectp.Protocol, *channel.Protocol, error) {
	addr, err := vip.NewAddr(h.Name+"/vipaddr", h.Eth, h.IP, h.ARP)
	if err != nil {
		return nil, nil, err
	}
	// VIPaddr serves two boundaries — under FRAGMENT (bulk path) and
	// directly under VIPsize (single-packet path). Each gets its own
	// wrap; both feed the same "<host>/vipaddr" layer in the meter.
	frag, err := fragment.New(h.Name+"/fragment", wrapIf(m, addr), hostAddr(h), benchFragCfg(clock))
	if err != nil {
		return nil, nil, err
	}
	size, err := vip.NewSize(h.Name+"/vipsize", wrapIf(m, frag), wrapIf(m, addr), h.ARP)
	if err != nil {
		return nil, nil, err
	}
	chn, err := channel.New(h.Name+"/channel", wrapIf(m, size), channel.Config{Clock: clock, Ledger: led})
	if err != nil {
		return nil, nil, err
	}
	sel, err := selectp.New(h.Name+"/select", wrapIf(m, chn), selectp.Config{})
	if err != nil {
		return nil, nil, err
	}
	return sel, chn, nil
}

func buildVIPsize(tb *Testbed, clock event.Clock, m *obs.Meter) error {
	csel, cchn, err := buildVIPsizeHost(tb.Client, clock, m, nil)
	if err != nil {
		return err
	}
	ssel, schn, err := buildVIPsizeHost(tb.Server, clock, m, tb.Ledger)
	if err != nil {
		return err
	}
	execs := registerSelectHandlers(ssel, m)
	app := xk.NewApp("client/app", nil)
	s, err := csel.Open(app, &xk.Participants{Remote: xk.NewParticipant(ServerAddr)})
	if err != nil {
		return err
	}
	if m != nil {
		tb.Collect = func() {
			m.Layer(cchn.Name()).Retransmits.Store(cchn.Stats().Retransmits)
			m.Layer(schn.Name()).Retransmits.Store(schn.Stats().Retransmits)
			m.Layer(schn.Name()).Rejects.Store(schn.Stats().StaleEpochRejects)
		}
	}
	tb.ServerReboot = schn.Reboot
	tb.ServerExecs = execs.Load
	tb.StaleRejects = func() int64 { return schn.Stats().StaleEpochRejects }
	tb.Retransmits = func() int64 { return cchn.Stats().Retransmits }
	tb.ClientReboot = cchn.Reboot
	tb.LedgerStats = func() ledger.Stats { return schn.Ledger().Stats() }
	tb.LedgerReplays = func() int64 { return schn.Stats().LedgerReplays }
	tb.addGauges(func(set *gauge.Set) {
		cchn.RegisterGauges(set, cchn.Name())
		schn.RegisterGauges(set, schn.Name())
		csel.RegisterGauges(set, csel.Name())
		ssel.RegisterGauges(set, ssel.Name())
	})
	tb.End = &selectEndpoint{s: s.(*selectp.Session)}
	tb.NewEndpoint = func(int) (Endpoint, error) { return tb.End, nil }
	tb.AtMostOnce = true
	return nil
}

// ---- Sun RPC: SUN_SELECT over REQUEST_REPLY over FRAGMENT-VIP (§3.3) ----

// The program/version the bench server registers; the paper's point is
// that Sun RPC decomposes onto the same substrate, so the commands map
// onto procedures of a single program.
const (
	sunProg uint32 = 0x20000001
	sunVers uint32 = 1
)

type sunrpcEndpoint struct{ s *sunrpc.SelectSession }

func (e *sunrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(sunProg, sunVers, uint32(CmdNull), msg.New(payload))
	return err
}

func (e *sunrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	reply, err := e.s.Call(sunProg, sunVers, uint32(CmdEcho), msg.New(payload))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

func buildSunRPC(tb *Testbed, clock event.Clock, m *obs.Meter) error {
	mk := func(h *stacks.Host) (*sunrpc.Select, error) {
		v, err := newVIP(h, m)
		if err != nil {
			return nil, err
		}
		frag, err := fragment.New(h.Name+"/fragment", wrapIf(m, v), hostAddr(h), benchFragCfg(clock))
		if err != nil {
			return nil, err
		}
		rr, err := sunrpc.NewReqRep(h.Name+"/reqrep", wrapIf(m, frag), sunrpc.ReqRepConfig{Clock: clock})
		if err != nil {
			return nil, err
		}
		return sunrpc.NewSelect(h.Name+"/sunselect", wrapIf(m, rr), sunrpc.SelectConfig{})
	}
	cli, err := mk(tb.Client)
	if err != nil {
		return err
	}
	srv, err := mk(tb.Server)
	if err != nil {
		return err
	}
	execs := new(atomic.Int64)
	srv.Register(sunProg, sunVers, uint32(CmdNull), func(_ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	})
	srv.Register(sunProg, sunVers, uint32(CmdEcho), func(args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.New(args.Bytes()), nil
	})
	app := xk.NewApp("client/app", nil)
	s, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(ServerAddr)})
	if err != nil {
		return err
	}
	tb.ServerExecs = execs.Load
	tb.End = &sunrpcEndpoint{s: s.(*sunrpc.SelectSession)}
	// SUN_SELECT multiplexes a fixed pool of REQUEST_REPLY sessions.
	tb.NewEndpoint = func(int) (Endpoint, error) { return tb.End, nil }
	// REQUEST_REPLY is zero-or-more: retransmissions may re-execute.
	tb.AtMostOnce = false
	return nil
}

// ---- UDP/IP (§1 claim) ----

type udpEndpoint struct {
	s     xk.Session
	reply chan *msg.Msg
}

func buildUDP(tb *Testbed, m *obs.Meter) error {
	cudp := wrapIf(m, tb.Client.UDP)
	sudp := wrapIf(m, tb.Server.UDP)
	serverApp := xk.NewApp("server/echo", nil)
	serverApp.Deliver = func(s xk.Session, m *msg.Msg) error {
		return s.Push(msg.Empty())
	}
	if err := sudp.OpenEnable(serverApp, xk.LocalOnly(xk.NewParticipant(udp.Port(7)))); err != nil {
		return err
	}
	e := &udpEndpoint{reply: make(chan *msg.Msg, 1)}
	clientApp := xk.NewApp("client/app", func(s xk.Session, m *msg.Msg) error {
		select {
		case e.reply <- m:
		default:
		}
		return nil
	})
	s, err := cudp.Open(clientApp, xk.NewParticipants(
		xk.NewParticipant(udp.Port(40000)),
		xk.NewParticipant(ServerAddr, udp.Port(7)),
	))
	if err != nil {
		return err
	}
	e.s = s
	tb.End = e
	return nil
}

func (e *udpEndpoint) RoundTrip(payload []byte) error {
	if err := e.s.Push(msg.New(payload)); err != nil {
		return err
	}
	select {
	case <-e.reply:
		return nil
	default:
		return fmt.Errorf("bench: udp round trip: no reply")
	}
}

func (e *udpEndpoint) Echo([]byte) ([]byte, error) {
	return nil, fmt.Errorf("bench: echo unsupported on udp endpoint")
}
