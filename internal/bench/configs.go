// Package bench builds the protocol configurations the paper's
// experiments measure (§4) and provides the harness that regenerates
// Tables I–III and the §4.3 dynamic-layer-removal result.
//
// Every configuration is assembled from one spec: stackTable names each
// stack's graph in the composition grammar, and stacks.Kernel.Compose —
// the composer the facade and the commands use — builds it on both hosts.
// The point of the exercise is that these stacks differ only in which
// protocols are composed, never in the protocols themselves; what
// differs above the graph is the client endpoint (endpoints.go).
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
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/rpc/nrpc"
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

	// kernels are the client's and the server's composed graphs.
	kernels [2]*stacks.Kernel
	// closers tear down build-allocated resources; run by Close.
	closers []func()
}

// RegisterGauges adds every gauge the testbed exposes to set: the
// simulated network's delivery/queue state ("net.*") plus whatever
// live-state gauges the composed instances export (any that has a
// RegisterGauges method) — CHANNEL in-flight calls and retransmit state,
// SELECT pool occupancy, the channel map's per-shard occupancy, the
// at-most-once engines' ledgers. Stacks without gauge-bearing layers
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
	for _, k := range tb.kernels {
		for _, name := range k.Instances() {
			if g, ok := k.MustGet(name).(interface {
				RegisterGauges(*gauge.Set, string)
			}); ok {
				g.RegisterGauges(set, k.Name()+"/"+name)
			}
		}
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
// interposed at every edge of its spec and above its top instance, all
// feeding the returned meter. The wire bytes are identical to Build's
// (the wrap is a passthrough), but the extra bookkeeping costs time —
// keep using Build for timing and reserve instrumented testbeds for
// counting, tracing, and per-layer breakdowns.
func BuildInstrumented(stack Stack, netCfg sim.Config, clock event.Clock) (*Testbed, *obs.Meter, error) {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	return BuildInstrumentedOn(stack, sim.Factory(netCfg), clock)
}

// ---- The table: every measured stack is a spec ----

// The graphs, in the grammar stacks.Kernel.Compose reads. Table III's
// rows are each the one before plus a line.
const (
	specVIP         = "vip eth ip\n"
	specFragVIP     = specVIP + "fragment vip\n"
	specChanFragVIP = specFragVIP + "channel fragment\n"
	specLRPC        = specChanFragVIP + "select channel\n" // Figure 3(a)
	specEthMap      = "ethmap eth\n"
	// Figure 3(b): VIPsize sends single-packet messages straight to
	// VIPaddr and only bulk ones through FRAGMENT.
	specVIPsize = "vipaddr eth ip\nfragment vipaddr\nvipsize fragment vipaddr\nchannel vipsize\nselect channel\n"
)

// rpcMaxMsg is the largest payload the RPC and push endpoints accept.
const rpcMaxMsg = 16 * 1024

// stackDef is one measured configuration: the graph composed on both
// hosts, the instance the endpoint drives, how that endpoint is opened,
// and the largest payload it takes.
type stackDef struct {
	stack  Stack
	spec   string
	top    string
	open   func(tb *Testbed, top string) error
	maxMsg int
}

var stackTable = []stackDef{
	{NRPC, specEthMap + "nrpc ethmap\n", "nrpc", openNRPC, rpcMaxMsg},
	{MRPCEth, specEthMap + "mrpc ethmap\n", "mrpc", openMRPC, rpcMaxMsg},
	{MRPCIP, "mrpc ip\n", "mrpc", openMRPC, rpcMaxMsg},
	{MRPCVIP, specVIP + "mrpc vip\n", "mrpc", openMRPC, rpcMaxMsg},
	{LRPCVIP, specLRPC, "select", openSelect, rpcMaxMsg},
	{VIPOnly, specVIP, "vip", openPush, rpcMaxMsg},
	{FragVIP, specFragVIP, "fragment", openPush, rpcMaxMsg},
	{ChanFragVIP, specChanFragVIP, "channel", openChannel, rpcMaxMsg},
	{SelChanFragVIP, specLRPC, "select", openSelect, rpcMaxMsg},
	{SelChanVIPsize, specVIPsize, "select", openSelect, rpcMaxMsg},
	{UDPIP, "", "udp", openUDP, 60 * 1024}, // the base graph alone
	{SunRPCVIP, specFragVIP + "reqrep fragment\nsunselect reqrep\n", "sunselect", openSunRPC, rpcMaxMsg},
}

// Stacks lists the measured configurations in table order. L_RPC-VIP
// and SELECT-CHANNEL-FRAGMENT-VIP are two names for one graph.
func Stacks() []Stack {
	all := make([]Stack, len(stackTable))
	for i, d := range stackTable {
		all[i] = d.stack
	}
	return all
}

// Spec returns the composition spec of a measured configuration (any
// ledger suffix ignored): the lines composed above the base graph, empty
// for UDP-IP-ETH, which is the base graph alone, and for an unknown name.
func Spec(stack Stack) string {
	d, _ := lookupStack(stack.Base())
	return d.spec
}

func lookupStack(base Stack) (stackDef, bool) {
	for _, d := range stackTable {
		if d.stack == base {
			return d, true
		}
	}
	return stackDef{}, false
}

// benchFragHold is FRAGMENT's send hold on every testbed: protocol
// behaviour is unchanged on a loss-free wire, but the window is short so
// the saved copies of swept 16k messages do not pile up as live heap and
// distort the garbage collector's behaviour during later measurements.
const benchFragHold = 10 * time.Millisecond

func build(stack Stack, f wire.Factory, clock event.Clock, m *obs.Meter) (*Testbed, error) {
	base, led, err := ParseStack(stack)
	if err != nil {
		return nil, err
	}
	def, ok := lookupStack(base)
	if !ok {
		return nil, fmt.Errorf("bench: unknown stack %q", stack)
	}
	client, server, w, err := stacks.TwoHostsOn(f, clock)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Stack: stack, Client: client, Server: server, Wire: w, Network: sim.Unwrap(w), MaxMsg: def.maxMsg, Meter: m}
	tb.closers = append(tb.closers, func() { w.Close() })
	if err := tb.compose(def, led, clock); err != nil {
		tb.Close()
		return nil, fmt.Errorf("bench: building %s: %w", stack, err)
	}
	return tb, nil
}

// compose builds def's graph on both hosts — Metered when the testbed
// has a meter, the server's kernel carrying the ledger — wires the
// testbed's hooks from the composed instances, and opens the endpoint.
func (tb *Testbed) compose(def stackDef, led *LedgerSpec, clock event.Clock) error {
	if led != nil {
		if err := tb.attachLedger(led, clock); err != nil {
			return err
		}
	}
	spec := def.spec
	if tb.Meter != nil {
		spec = stacks.Metered(spec)
	}
	for i, h := range []*stacks.Host{tb.Client, tb.Server} {
		k := stacks.NewKernel(h)
		k.SetMeter(tb.Meter)
		k.SetFragmentHold(benchFragHold)
		if h == tb.Server {
			// Only the server executes requests, so only its engine gets
			// the testbed's ledger; the client keeps the default.
			k.SetLedger(tb.Ledger)
		}
		if err := k.Compose(spec); err != nil {
			return err
		}
		tb.kernels[i] = k
	}
	tb.wireEngine()
	if led != nil && !tb.AtMostOnce {
		return fmt.Errorf("no at-most-once layer to carry a ledger")
	}
	return def.open(tb, def.top)
}

// engine is the at-most-once layer of a composed graph — CHANNEL, or the
// Sprite engine M.RPC and N.RPC both run on — as the chaos hooks and the
// meter read it.
type engine struct {
	name   string
	reboot func()
	ledger ledger.ExecLedger
	stats  func() engineStats
}

// engineStats is what the hooks read of channel.Stats and mrpc.Stats.
type engineStats struct{ retransmits, staleRejects, ledgerReplays int64 }

func findEngine(k *stacks.Kernel) *engine {
	for _, name := range k.Instances() {
		p := k.MustGet(name)
		if n, ok := p.(*nrpc.Protocol); ok {
			p = n.Protocol
		}
		switch p := p.(type) {
		case *channel.Protocol:
			return &engine{p.Name(), p.Reboot, p.Ledger(), func() engineStats {
				s := p.Stats()
				return engineStats{s.Retransmits, s.StaleEpochRejects, s.LedgerReplays}
			}}
		case *mrpc.Protocol:
			return &engine{p.Name(), p.Reboot, p.Ledger(), func() engineStats {
				s := p.Stats()
				return engineStats{s.Retransmits, s.StaleEpochRejects, s.LedgerReplays}
			}}
		}
	}
	return nil
}

// wireEngine fills the crash, ledger and retransmission hooks from the
// two hosts' at-most-once engines; a graph without one (the push and UDP
// rigs, zero-or-more Sun RPC) leaves them nil.
func (tb *Testbed) wireEngine() {
	cli, srv := findEngine(tb.kernels[0]), findEngine(tb.kernels[1])
	if cli == nil {
		return
	}
	tb.AtMostOnce = true
	tb.ServerReboot = srv.reboot
	tb.ClientReboot = cli.reboot
	tb.StaleRejects = func() int64 { return srv.stats().staleRejects }
	tb.Retransmits = func() int64 { return cli.stats().retransmits }
	tb.LedgerStats = func() ledger.Stats { return srv.ledger.Stats() }
	tb.LedgerReplays = func() int64 { return srv.stats().ledgerReplays }
	if m := tb.Meter; m != nil {
		tb.Collect = func() {
			m.Layer(cli.name).Retransmits.Store(cli.stats().retransmits)
			s := srv.stats()
			m.Layer(srv.name).Retransmits.Store(s.retransmits)
			m.Layer(srv.name).Rejects.Store(s.staleRejects)
		}
	}
}

// instances returns the stack's top instance on the client and the
// server as the concrete type a typed endpoint drives. A row of
// stackTable whose top is not that type is a bug in the table.
func instances[T xk.Protocol](tb *Testbed, top string) (cli, srv T) {
	return tb.kernels[0].MustGet(top).(T), tb.kernels[1].MustGet(top).(T)
}

// above returns what an endpoint that opens sessions through the uniform
// interface binds to on each host: the top instance, or on a metered
// testbed the boundary above it — the rule a spec line naming it as a
// lower protocol would follow.
func (tb *Testbed) above(top string) (cli, srv xk.Protocol, err error) {
	if tb.Meter != nil {
		top = "@" + top
	}
	if cli, err = tb.kernels[0].Lower(top); err == nil {
		srv, err = tb.kernels[1].Lower(top)
	}
	return cli, srv, err
}

// shared installs an endpoint whose session multiplexes a fixed pool of
// channels internally (SELECT, the Sprite engines, SUN_SELECT), so the
// one endpoint serves any number of concurrent clients.
func (tb *Testbed) shared(e Endpoint) {
	tb.End = e
	tb.NewEndpoint = func(int) (Endpoint, error) { return e, nil }
}

// toServer is the participant set every client session opens with.
func toServer() *xk.Participants {
	return &xk.Participants{Remote: xk.NewParticipant(ServerAddr)}
}

// registerHandlers installs the null and echo procedures through the
// Register shape SELECT, M.RPC and N.RPC share and returns the count of
// requests they ran.
func registerHandlers[H ~func(uint16, *msg.Msg) (*msg.Msg, error)](register func(uint16, H), m *obs.Meter) func() int64 {
	execs := new(atomic.Int64)
	register(CmdNull, spanHandler(m, "server/handler", func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	}))
	register(CmdEcho, spanHandler(m, "server/handler", func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return args, nil
	}))
	return execs.Load
}
