// Package xkernel is a Go reproduction of the system described in
// "RPC in the x-Kernel: Evaluating New Design Techniques" (Hutchinson,
// Peterson, Abbott, O'Malley; SOSP 1989): the x-kernel's object-oriented
// protocol-composition infrastructure, the conventional protocol suite
// it hosts (ETH, ARP, IP, ICMP, UDP), the paper's two design techniques
// — virtual protocols (VIP, VIPaddr, VIPsize) and layered protocols
// (SELECT, CHANNEL, FRAGMENT) — monolithic and layered Sprite RPC, the
// Sun RPC decomposition with composable authentication layers, and a
// simplified Psync, all running over an in-memory simulated ethernet.
//
// This package is the public face: it re-exports the core vocabulary
// types and Kernel (internal/stacks' composer), a per-host container
// that plays the role of x-kernel configuration — protocols are
// instantiated and wired into a graph when a kernel is built, while
// sessions (the actual bindings) are created later at run time by opens.
//
// A protocol graph is described by a small spec language modeled on the
// x-kernel's graph.comp file: one line per protocol instance, naming
// the protocol kind and the previously declared instances below it.
// For example, the paper's Figure 3(a) configuration
// (SELECT-CHANNEL-FRAGMENT-VIP) is:
//
//	k, _ := xkernel.NewKernel(cfg)
//	err := k.Compose(`
//	    vip      eth ip
//	    fragment vip
//	    channel  fragment
//	    select   channel
//	`)
//
// and Figure 3(b), which dynamically removes FRAGMENT for
// single-packet messages, is:
//
//	err := k.Compose(`
//	    vipaddr  eth ip
//	    fragment vipaddr
//	    vipsize  fragment vipaddr
//	    channel  vipsize
//	    select   channel
//	`)
//
// Every stack the evaluation measures is built the same way, from a spec
// in internal/bench's table (StackSpec returns it), so the graph an
// example composes and the graph a table row times are one mechanism.
//
// See the examples directory for complete programs and the benchmark
// directory (go run ./benchmark) for the harness that times the stacks.
package xkernel

import (
	"xkernel/internal/bench"
	"xkernel/internal/chaos"
	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/load"
	"xkernel/internal/msg"
	"xkernel/internal/obs"
	"xkernel/internal/obs/anatomy"
	"xkernel/internal/obs/flight"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/obs/prof"
	"xkernel/internal/obs/span"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/trace"
	"xkernel/internal/wire"
	udpwire "xkernel/internal/wire/udp"
	"xkernel/internal/xk"
)

// Re-exported vocabulary types: the uniform protocol interface (§2 of
// the paper) and the addressing and message tools every protocol
// shares.
type (
	// Kernel is one configured host: the base protocol graph plus
	// whatever Compose adds on top — the unit the paper calls "a given
	// instance of the x-kernel" (Figure 1). It is internal/stacks'
	// composer, the one every measured stack is built by too.
	Kernel = stacks.Kernel
	// Protocol is the uniform protocol object interface.
	Protocol = xk.Protocol
	// Session is the uniform session object interface.
	Session = xk.Session
	// ControlOp identifies a control operation.
	ControlOp = xk.ControlOp
	// Participants is the participant set passed to opens.
	Participants = xk.Participants
	// Participant is one party's address-component stack.
	Participant = xk.Participant
	// App adapts an application endpoint to the Protocol interface.
	App = xk.App
	// Msg is the x-kernel message: header stack plus payload chain.
	Msg = msg.Msg
	// IPAddr is a 32-bit internet address.
	IPAddr = xk.IPAddr
	// EthAddr is a 48-bit ethernet address.
	EthAddr = xk.EthAddr
	// Network is a simulated ethernet segment.
	Network = sim.Network
	// NetConfig parameterizes a simulated segment.
	NetConfig = sim.Config
	// Wire is the pluggable transport seam every testbed is built
	// over: attach and detach links, query the MTU, read frame
	// counters, close the backend.
	Wire = wire.Wire
	// WireLink is one attached interface on a Wire — the eth driver's
	// view of its NIC. The driver uses the message pair (SendMsg, which
	// consumes the frame it is given, and SetMsgReceiver, whose handler
	// owns what it is handed): a frame crosses the wire as the message.
	// Send and SetReceiver are the raw-frame entry to the same slot.
	WireLink = wire.Link
	// WireStats counts frames sent, delivered, and dropped on a Wire.
	WireStats = wire.Stats
	// WireFactory constructs a fresh Wire; testbed builders take one
	// to choose a transport backend.
	WireFactory = wire.Factory
	// WireInjector wraps any Wire with deterministic scripted faults
	// (burst and targeted drops, link state): the one fault board, over
	// the simulator and real backends alike.
	WireInjector = wire.Injector
	// UDPWireConfig parameterizes the real UDP-socket backend.
	UDPWireConfig = udpwire.Config
	// Clock abstracts time for protocol timers.
	Clock = event.Clock
	// FakeClock is a manually advanced clock for deterministic tests.
	FakeClock = event.FakeClock
	// Meter aggregates per-layer counters and latency histograms.
	Meter = obs.Meter
	// LayerSnapshot is a JSON-ready copy of one layer's stats.
	LayerSnapshot = obs.LayerSnapshot
	// Tracer emits structured JSONL trace records.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// SpanRecorder is the bounded in-memory causal span store; attach
	// one with Meter.SetSpans and Network.SetSpans, then Enable it.
	SpanRecorder = span.Recorder
	// Span is one recorded causal interval of a message's life.
	Span = span.Span
	// SpanAnalysis is a reconstructed cause forest plus its
	// latency-anatomy table and compositional-invariant check.
	SpanAnalysis = anatomy.Analysis
	// SpanNode is one span placed in a cause tree.
	SpanNode = anatomy.Node
	// SpanEpsilon is the tolerance for the compositional invariant.
	SpanEpsilon = anatomy.Epsilon
	// FrameRecord is one captured wire frame with its disposition.
	FrameRecord = sim.FrameRecord
	// Stack names a measured protocol configuration from the paper.
	Stack = bench.Stack
	// ChaosConfig parameterizes one chaos run: stack, network,
	// workload, and fault scenario.
	ChaosConfig = chaos.Config
	// ChaosScenario is a scripted fault sequence keyed to the workload.
	ChaosScenario = chaos.Scenario
	// ChaosWorkload sizes the call sequence a chaos run drives.
	ChaosWorkload = chaos.Workload
	// ChaosResult carries a chaos run's tallies, wire log, and any
	// invariant violations.
	ChaosResult = chaos.Result
	// LoadOptions parameterizes a concurrent workload sweep: stacks,
	// client counts, window, payload, and simulated wire latency.
	LoadOptions = load.Options
	// LoadLevel is one concurrency level's aggregate measurement:
	// calls/sec, latency quantiles, and cross-client fairness.
	LoadLevel = load.Level
	// LoadStackReport is one stack's full concurrency sweep.
	LoadStackReport = load.StackReport
	// LoadReport is the JSON-ready result of a whole load run
	// (what xkload -json writes).
	LoadReport = load.Report
	// LoadKneeSummary locates a stack's saturation knee in a sweep.
	LoadKneeSummary = load.KneeSummary
	// GaugeSet is a named registry of periodically sampled gauges.
	GaugeSet = gauge.Set
	// GaugeSeries is one gauge's lock-free sample ring.
	GaugeSeries = gauge.Series
	// GaugeSample is one (virtual-time, value) gauge point.
	GaugeSample = gauge.Sample
	// GaugeSeriesSnapshot is a JSON-ready copy of one series.
	GaugeSeriesSnapshot = gauge.SeriesSnapshot
	// GaugeSampler periodically samples a GaugeSet on an injected clock.
	GaugeSampler = gauge.Sampler
	// FlightRecorder is the bounded black-box ring of recent
	// span/trace/fault events; zero-cost until enabled.
	FlightRecorder = flight.Recorder
	// FlightEvent is one black-box entry.
	FlightEvent = flight.Event
	// FlightDump is the JSON-ready post-mortem artifact a recorder
	// writes when something breaks.
	FlightDump = flight.Dump
	// RetryPolicy shapes a retransmission schedule around a base
	// interval.
	RetryPolicy = retry.Policy
	// RetryStep is the paper's constant-interval policy.
	RetryStep = retry.Step
	// RetryExponential doubles the interval per attempt up to a cap.
	RetryExponential = retry.Exponential
	// ExecLedger is the at-most-once execution ledger: record executed
	// request + cached reply before sending, look up before executing,
	// so a crashed server replays instead of re-executing or widening
	// every in-flight call to ErrPeerRebooted.
	ExecLedger = ledger.ExecLedger
	// LedgerKey identifies one client channel's slot in a ledger.
	LedgerKey = ledger.Key
	// LedgerEntry is one executed request: client boot epoch, sequence,
	// and the reply exactly as framed for the wire.
	LedgerEntry = ledger.Entry
	// LedgerStats counts a ledger's appends, lookups, hits, evictions,
	// syncs, recoveries, and torn tails.
	LedgerStats = ledger.Stats
	// MemLedger is the bounded in-memory (volatile) implementation.
	MemLedger = ledger.Mem
	// FileLedger is the write-ahead segmented-file implementation with
	// fsync policies, rotation+compaction, and torn-tail-tolerant
	// crash recovery.
	FileLedger = ledger.File
	// LedgerFileOptions parameterizes a FileLedger: fsync policy, sync
	// interval, segment size, and clock.
	LedgerFileOptions = ledger.FileOptions
	// LedgerFsyncPolicy selects when appended records become durable.
	LedgerFsyncPolicy = ledger.FsyncPolicy
	// Profile is a decoded pprof profile (the stdlib-only reader's
	// view of cpu/heap/mutex/block captures).
	Profile = prof.Profile
	// ProfSample is one profile sample: leaf-first frames, values,
	// labels.
	ProfSample = prof.Sample
	// ProfCapture scopes CPU/heap/mutex/block profile collection
	// around a region; an inert zero value costs nothing.
	ProfCapture = prof.Capture
	// ProfReport is the per-layer resource anatomy (xkprof's
	// kind:"prof" JSON): CPU, allocation, and lock-wait attribution.
	ProfReport = prof.Report
	// ProfLayerRow is one layer's row in a ProfReport.
	ProfLayerRow = prof.LayerRow
)

// Re-exported constructors and helpers.
var (
	// NewMsg builds a message around a payload.
	NewMsg = msg.New
	// EmptyMsg builds an empty message.
	EmptyMsg = msg.Empty
	// MakeData builds a patterned test payload.
	MakeData = msg.MakeData
	// NewNetwork creates a simulated ethernet segment.
	NewNetwork = sim.New
	// SimWireFactory builds the in-memory simulated-ethernet backend
	// as a Wire (deterministic, clock-driven).
	SimWireFactory = sim.Factory
	// UDPWireFactory builds the real UDP-socket backend: one loopback
	// socket per attached link, one ethernet frame per datagram.
	UDPWireFactory = udpwire.Factory
	// NewWireInjector wraps a Wire with the scripted fault injector.
	NewWireInjector = wire.NewInjector
	// UnwrapNetwork returns the simulator behind a Wire (looking through
	// a WireInjector), or nil when the backend is not the simulator.
	UnwrapNetwork = sim.Unwrap
	// NewApp wraps a delivery callback as a top-of-stack Protocol.
	NewApp = xk.NewApp
	// NewParticipant builds an address-component stack (bottom-up).
	NewParticipant = xk.NewParticipant
	// NewParticipants builds a two-party participant set.
	NewParticipants = xk.NewParticipants
	// LocalOnly builds the partial set used with OpenEnable.
	LocalOnly = xk.LocalOnly
	// IP builds an IPAddr from four octets.
	IP = xk.IP
	// RealClock returns the wall clock.
	RealClock = event.Real
	// NewFakeClock returns a manually advanced clock.
	NewFakeClock = event.NewFake
	// NewMeter creates an empty observability meter.
	NewMeter = obs.NewMeter
	// NewTracer creates a JSONL tracer writing to an io.Writer.
	NewTracer = obs.NewTracer
	// NewSpanRecorder creates a disabled causal span recorder holding
	// at most max spans (0 means the default bound).
	NewSpanRecorder = span.NewRecorder
	// AnalyzeSpans rebuilds recorded spans into per-RPC cause trees.
	AnalyzeSpans = anatomy.Analyze
	// FormatSpanTree renders one cause tree as indented text.
	FormatSpanTree = anatomy.FormatTree
	// SpanCriticalPath follows the dominant child from root to leaf.
	SpanCriticalPath = anatomy.CriticalPath
	// WriteChromeTrace renders spans as Chrome trace-event JSON that
	// Perfetto and chrome://tracing load directly.
	WriteChromeTrace = anatomy.WriteChromeTrace
	// Metered rewrites a composition spec so every boundary is
	// instrumented ("@" before each lower-protocol reference); compose
	// the result after SetMeter to measure the graph layer by layer.
	Metered = stacks.Metered
	// WrapProtocol interposes an instrumentation boundary above a
	// protocol (the programmatic form of "@name" in a spec).
	WrapProtocol = obs.Wrap
	// MsgID reports a message's observability id, if tagged.
	MsgID = obs.MsgID
	// TraceFilterSubstring builds a tracer filter keeping layers that
	// contain a substring (app- and wire-level records always pass).
	TraceFilterSubstring = obs.FilterSubstring
	// FlushTrace drains buffered trace output; call it before
	// interleaving other writes to the trace destination.
	FlushTrace = trace.Flush
	// StackSpec returns a measured configuration's composition spec,
	// the graph bench composes on both hosts.
	StackSpec = bench.Spec
	// ChaosExecute runs a fault scenario against a stack and checks
	// the robustness invariants (at-most-once, convergence, bounded
	// retransmission, clean shutdown).
	ChaosExecute = chaos.Execute
	// ChaosLibrary returns the canned scenario sweep for a workload of
	// the given length.
	ChaosLibrary = chaos.Library
	// ChaosPartitionReboot scripts the acceptance scenario: partition,
	// crash+reboot behind it, heal.
	ChaosPartitionReboot = chaos.PartitionReboot
	// LoadRun sweeps N concurrent closed-loop clients through each
	// configured stack and reports calls/sec, p50/p99, and fairness.
	LoadRun = load.Run
	// LoadRunLevel measures a single (stack, client-count) cell.
	LoadRunLevel = load.RunLevel
	// LoadReadReport loads a load-sweep JSON report from disk.
	LoadReadReport = load.ReadReport
	// LoadComputeKnees locates each stack's saturation knee in a sweep.
	LoadComputeKnees = load.ComputeKnees
	// NewGaugeSet creates a gauge registry whose series each keep the
	// given number of samples (0 means the default ring capacity).
	NewGaugeSet = gauge.NewSet
	// NewGaugeSampler drives periodic sampling of a set on a clock.
	NewGaugeSampler = gauge.NewSampler
	// RegisterRuntimeGauges adds the Go runtime's goroutine-count and
	// heap gauges to a set.
	RegisterRuntimeGauges = gauge.RegisterRuntime
	// GaugeKnee finds the saturation knee of an (x, y) curve: the last
	// point where marginal gain still clears the given fraction of the
	// initial slope.
	GaugeKnee = gauge.Knee
	// NewFlightRecorder creates a disabled black-box recorder holding
	// the last max events (0 means the default bound).
	NewFlightRecorder = flight.New
	// ReadFlightDump loads a flight-recorder JSON dump from disk.
	ReadFlightDump = flight.ReadDump
	// NewMemLedger creates a bounded in-memory execution ledger.
	NewMemLedger = ledger.NewMem
	// NewFileLedger opens (or recovers) a write-ahead execution ledger
	// in the given directory.
	NewFileLedger = ledger.NewFile
	// ScanLedgerDir replays a ledger directory read-only: the surviving
	// index plus scan statistics (cmd/xkledger's engine).
	ScanLedgerDir = ledger.ScanDir
	// ParseProfile decodes a pprof profile from raw (optionally
	// gzipped) protobuf bytes with no external dependencies.
	ParseProfile = prof.Parse
	// ParseProfileFile decodes a pprof profile from a file.
	ParseProfileFile = prof.ParseFile
	// BuildProfReport attributes decoded cpu/heap/mutex/block profiles
	// to protocol layers (any of the four may be nil).
	BuildProfReport = prof.BuildReport
)

// Ledger fsync policies, re-exported.
const (
	// LedgerFsyncAlways syncs every record before the reply is sent.
	LedgerFsyncAlways = ledger.FsyncAlways
	// LedgerFsyncInterval batches syncs on a short timer.
	LedgerFsyncInterval = ledger.FsyncInterval
	// LedgerFsyncNever leaves durability to the OS page cache.
	LedgerFsyncNever = ledger.FsyncNever
)

// Typed failure sentinels clients should match with errors.Is.
var (
	// ErrTimeout is returned when a bounded operation gives up.
	ErrTimeout = xk.ErrTimeout
	// ErrPeerRebooted matches the typed errors the RPC layers return
	// when the server crashed and rebooted mid-call.
	ErrPeerRebooted = xk.ErrPeerRebooted
	// ErrChannelBusy is CHANNEL's one-outstanding-request refusal.
	ErrChannelBusy = channel.ErrChannelBusy
)

// The measured stack configurations chaos runs target, re-exported.
const (
	// StackMRPCVIP is monolithic Sprite RPC over VIP (Tables I, II).
	StackMRPCVIP = bench.MRPCVIP
	// StackLRPCVIP is SELECT-CHANNEL-FRAGMENT-VIP (Table II).
	StackLRPCVIP = bench.LRPCVIP
	// StackChanFragVIP is CHANNEL-FRAGMENT-VIP (Table III).
	StackChanFragVIP = bench.ChanFragVIP
	// StackVIPsize is the §4.3 SELECT-CHANNEL-VIPsize composition.
	StackVIPsize = bench.SelChanVIPsize
	// StackNRPC is the native-style N_RPC analogue.
	StackNRPC = bench.NRPC
	// StackSunRPCVIP is the Sun RPC decomposition over
	// FRAGMENT-VIP (zero-or-more call semantics).
	StackSunRPCVIP = bench.SunRPCVIP
)

// Commonly used control opcodes, re-exported.
const (
	CtlGetMTU       = xk.CtlGetMTU
	CtlGetOptPacket = xk.CtlGetOptPacket
	CtlGetMyHost    = xk.CtlGetMyHost
	CtlGetPeerHost  = xk.CtlGetPeerHost
	CtlResolve      = xk.CtlResolve
	CtlHLPMaxMsg    = xk.CtlHLPMaxMsg
	CtlFreeChannels = xk.CtlFreeChannels
)

// TraceLevel controls global protocol tracing.
type TraceLevel = trace.Level

// Trace levels.
const (
	TraceOff     = trace.Off
	TraceEvents  = trace.Events
	TracePackets = trace.Packets
)

// SetTrace directs protocol tracing at the given level to standard
// error via trace.SetOutput; see the trace package for details.
var (
	// SetTraceLevel sets the global trace verbosity.
	SetTraceLevel = trace.SetLevel
	// SetTraceOutput directs trace output.
	SetTraceOutput = trace.SetOutput
)

// Config describes one host: its link-layer and internet addresses and
// the segment it attaches to.
type Config struct {
	// Name tags the host's protocol instances in traces and errors.
	Name string
	// Eth is the host's hardware address.
	Eth EthAddr
	// Addr is the host's internet address; Mask defaults to /24.
	Addr IPAddr
	Mask IPAddr
	// Network is the segment the host attaches to.
	Network *Network
	// Clock drives all the host's timers; nil means the real clock.
	Clock Clock
	// Forward enables IP forwarding (router hosts).
	Forward bool
}

// NewKernel attaches a host to its network and builds the base graph.
func NewKernel(cfg Config) (*Kernel, error) {
	h, err := stacks.NewHost(stacks.HostConfig{
		Name:    cfg.Name,
		Eth:     cfg.Eth,
		IP:      cfg.Addr,
		Mask:    cfg.Mask,
		Network: cfg.Network,
		Clock:   cfg.Clock,
		Forward: cfg.Forward,
	})
	if err != nil {
		return nil, err
	}
	return stacks.NewKernel(h), nil
}

// TwoHosts builds the paper's standard testbed: a fresh 10 Mbps segment
// with a client kernel at 10.0.0.1 and a server kernel at 10.0.0.2.
func TwoHosts(netCfg NetConfig, clock Clock) (client, server *Kernel, network *Network, err error) {
	c, s, n, err := stacks.TwoHosts(netCfg, clock)
	if err != nil {
		return nil, nil, nil, err
	}
	return stacks.NewKernel(c), stacks.NewKernel(s), n, nil
}

// TwoHostsOn builds the standard testbed over an arbitrary transport
// backend: the client and server kernels plus the Wire carrying their
// frames. Close the Wire when done — real backends own sockets and
// listener goroutines.
func TwoHostsOn(f WireFactory, clock Clock) (client, server *Kernel, w Wire, err error) {
	c, s, w, err := stacks.TwoHostsOn(f, clock)
	if err != nil {
		return nil, nil, nil, err
	}
	return stacks.NewKernel(c), stacks.NewKernel(s), w, nil
}

// Internet builds the multi-segment topology with a router between the
// client's and server's ethernets — the case where VIP must choose IP.
func Internet(netCfg NetConfig, clock Clock) (client, server, router *Kernel, err error) {
	c, s, r, err := stacks.Internet(netCfg, clock)
	if err != nil {
		return nil, nil, nil, err
	}
	return stacks.NewKernel(c), stacks.NewKernel(s), stacks.NewKernel(r), nil
}
