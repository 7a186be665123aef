// Package load is a closed-loop concurrent workload engine for the RPC
// stacks: N client goroutines issue back-to-back calls through a
// testbed's endpoints for a fixed window, sweeping N upward, and the
// engine reports aggregate calls/sec, latency quantiles, and fairness
// across clients at each level.
//
// The paper measures one client calling in a tight loop; this engine
// asks the question the paper's design claims to answer — that a
// protocol decomposed into layers still scales when many callers hit
// the demux paths at once. The simulated wire runs with a small
// non-zero latency so calls are latency-bound the way the real
// network's were: concurrent clients overlap their waits (and their
// replies arrive on concurrent timer goroutines), so throughput grows
// with N exactly as far as the stack's own locking lets it.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/event"
	"xkernel/internal/obs"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/obs/prof"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	udpwire "xkernel/internal/wire/udp"
)

// Wire backend names accepted by Options.Wire and the CLIs' -wire flag.
const (
	// WireSim is the simulated ethernet (the default): frames carry
	// Options.WireLatency and delivery is exact.
	WireSim = "sim"
	// WireUDP is the real-socket backend: frames cross loopback UDP
	// sockets, so latency is the kernel's and delivery is best-effort.
	// Options.WireLatency is ignored.
	WireUDP = "udp"
)

// WireFactory maps a backend name to the factory that builds it, with
// latency applied where the backend models one. The empty name means
// WireSim.
func WireFactory(name string, latency time.Duration) (wire.Factory, error) {
	switch name {
	case "", WireSim:
		return sim.Factory(sim.Config{Latency: latency}), nil
	case WireUDP:
		return udpwire.Factory(udpwire.Config{}), nil
	default:
		return nil, fmt.Errorf("unknown wire backend %q (want %s or %s)", name, WireSim, WireUDP)
	}
}

// DefaultStacks are the configurations a load sweep measures when the
// caller does not choose: the full layered stack, both monolithic
// engines, Sun RPC on the shared substrate, and a bare CHANNEL (each
// client on its own channel id).
var DefaultStacks = []bench.Stack{
	bench.LRPCVIP,
	bench.MRPCVIP,
	bench.NRPC,
	bench.SunRPCVIP,
	bench.ChanFragVIP,
}

// DurabilityStacks is the durability-tax sweep: one base stack per
// engine family crossed with the execution-ledger axis, from the
// in-memory baseline to fsync-per-record. The delta between rows is
// the price of surviving a crash with the reply cache intact.
var DurabilityStacks = []bench.Stack{
	bench.LRPCVIP,
	bench.LRPCVIP + "+wal-never",
	bench.LRPCVIP + "+wal-interval",
	bench.LRPCVIP + "+wal-always",
	bench.MRPCVIP,
	bench.MRPCVIP + "+wal-never",
	bench.MRPCVIP + "+wal-interval",
	bench.MRPCVIP + "+wal-always",
}

// Options parameterizes a sweep.
type Options struct {
	// Stacks to measure; nil means DefaultStacks. Stacks whose testbed
	// has no concurrent endpoint factory are rejected.
	Stacks []bench.Stack
	// Clients is the sweep of concurrency levels; nil means {1, 8, 64}.
	Clients []int
	// Duration is the measured window per level; zero means 300ms.
	Duration time.Duration
	// WarmupCalls per client before the window opens (session setup,
	// ARP, first-use costs); zero means 5.
	WarmupCalls int
	// Payload is the request size in bytes; zero means 64. (Zero-byte
	// requests: set Echo false and Payload 0 is still a null call.)
	Payload int
	// Echo verifies every reply echoes the request byte-for-byte
	// instead of calling the null procedure.
	Echo bool
	// WireLatency is the simulated one-way frame latency; zero means
	// 150µs. It must stay well under the stacks' retransmit timers
	// (50ms) or the engine would measure recovery, not throughput.
	// Ignored by the UDP backend, whose latency is the kernel's.
	WireLatency time.Duration
	// Wire names the transport backend testbeds are built over:
	// WireSim (default) or WireUDP.
	Wire string
	// GaugePeriod is the XKMON sampling period during each measured
	// window: every period the engine records one point per registered
	// gauge series (network delivery state, CHANNEL/SELECT occupancy,
	// per-client in-flight). Zero means gauge.DefaultPeriod; negative
	// disables gauge collection entirely.
	GaugePeriod time.Duration
	// ProfileDir, when set, records one profile set per (stack,
	// clients) cell into this directory —
	// <stack>_c<N>.{cpu,heap,mutex,block}.pb.gz — scoped to the
	// measured window, so the mutex/block sampling rates cost nothing
	// during warmup or between cells. xkprof decodes the files.
	ProfileDir string
	// Labels runs each client's loop under a {stack=<name>} pprof
	// label set, so one CPU profile spanning the whole sweep still
	// attributes samples per stack.
	Labels bool
}

func (o *Options) fill() {
	if o.Stacks == nil {
		o.Stacks = DefaultStacks
	}
	if o.Clients == nil {
		o.Clients = []int{1, 8, 64}
	}
	if o.Duration == 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.WarmupCalls == 0 {
		o.WarmupCalls = 5
	}
	if o.Payload == 0 {
		o.Payload = 64
	}
	if o.WireLatency == 0 {
		o.WireLatency = 150 * time.Microsecond
	}
	if o.GaugePeriod == 0 {
		o.GaugePeriod = gauge.DefaultPeriod
	}
}

// Level is one concurrency level's measurements on one stack.
type Level struct {
	Clients     int     `json:"clients"`
	Calls       int64   `json:"calls"`
	Errors      int64   `json:"errors"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	CallsPerSec float64 `json:"calls_per_sec"`
	MeanUs      float64 `json:"mean_us"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	// Fairness is Jain's index over per-client call counts:
	// (Σx)²/(n·Σx²), 1.0 when every client got identical service,
	// approaching 1/n when one client starved the rest.
	Fairness float64 `json:"fairness"`
	// Gauges holds the XKMON time-resolved series sampled during the
	// window (absent when Options.GaugePeriod is negative).
	Gauges []gauge.SeriesSnapshot `json:"gauges,omitempty"`
}

// StackReport is one stack's sweep.
type StackReport struct {
	Stack  string  `json:"stack"`
	Levels []Level `json:"levels"`
}

// Report is a full sweep in exportable form. Kind distinguishes it
// from xkprof's report.
type Report struct {
	Kind    string `json:"kind"` // always "load"
	Options struct {
		Clients       []int   `json:"clients"`
		DurationMs    float64 `json:"duration_ms"`
		Payload       int     `json:"payload"`
		Echo          bool    `json:"echo"`
		WireLatencyUs float64 `json:"wire_latency_us"`
		Wire          string  `json:"wire,omitempty"` // "" means sim
		GaugePeriodMs float64 `json:"gauge_period_ms,omitempty"`
	} `json:"options"`
	Stacks []StackReport `json:"stacks"`
	// Knees summarizes where each stack's throughput stops scaling with
	// added clients — the saturation knee XKMON renders.
	Knees []KneeSummary `json:"knees,omitempty"`
}

// KneeSummary locates the saturation knee in one stack's sweep: the
// last concurrency level at which adding clients still bought
// throughput at a meaningful fraction of the single-client slope.
type KneeSummary struct {
	Stack string `json:"stack"`
	Found bool   `json:"found"`
	// KneeClients is the concurrency level at the knee; meaningful only
	// when Found.
	KneeClients int `json:"knee_clients,omitempty"`
	// CallsPerSec is the throughput measured at the knee level.
	CallsPerSec float64 `json:"calls_per_sec,omitempty"`
}

// ComputeKnees locates the saturation knee of every stack in the
// report, applying gauge.Knee to (clients, calls/sec).
func ComputeKnees(rep *Report) []KneeSummary {
	var out []KneeSummary
	for _, s := range rep.Stacks {
		x := make([]float64, len(s.Levels))
		y := make([]float64, len(s.Levels))
		for i := range s.Levels {
			x[i] = float64(s.Levels[i].Clients)
			y[i] = s.Levels[i].CallsPerSec
		}
		ks := KneeSummary{Stack: s.Stack}
		if idx, ok := gauge.Knee(x, y, gauge.DefaultKneeFrac); ok {
			ks.Found = true
			ks.KneeClients = s.Levels[idx].Clients
			ks.CallsPerSec = s.Levels[idx].CallsPerSec
		}
		out = append(out, ks)
	}
	return out
}

// ReportKind is the Kind value marking a load report.
const ReportKind = "load"

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a load report written by WriteJSON and refuses JSON
// of any other kind.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Kind != ReportKind {
		return nil, fmt.Errorf("%s: kind %q is not a load report", path, rep.Kind)
	}
	if len(rep.Stacks) == 0 {
		return nil, fmt.Errorf("%s: no stacks in report", path)
	}
	return &rep, nil
}

// Run sweeps every stack through every concurrency level.
func Run(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{Kind: ReportKind}
	rep.Options.Clients = opt.Clients
	rep.Options.DurationMs = float64(opt.Duration.Nanoseconds()) / 1e6
	rep.Options.Payload = opt.Payload
	rep.Options.Echo = opt.Echo
	rep.Options.WireLatencyUs = float64(opt.WireLatency.Nanoseconds()) / 1e3
	rep.Options.Wire = opt.Wire
	rep.Options.GaugePeriodMs = float64(opt.GaugePeriod.Nanoseconds()) / 1e6
	for _, stack := range opt.Stacks {
		sr := StackReport{Stack: string(stack)}
		for _, n := range opt.Clients {
			lvl, err := RunLevel(stack, n, opt)
			if err != nil {
				return nil, fmt.Errorf("load: %s with %d clients: %w", stack, n, err)
			}
			sr.Levels = append(sr.Levels, *lvl)
		}
		rep.Stacks = append(rep.Stacks, sr)
	}
	rep.Knees = ComputeKnees(rep)
	return rep, nil
}

// RunLevel measures one (stack, clients) cell on a fresh testbed.
func RunLevel(stack bench.Stack, clients int, opt Options) (*Level, error) {
	opt.fill()
	if clients < 1 {
		return nil, fmt.Errorf("load: need at least one client")
	}
	// An async wire: deliveries arrive on their own goroutines (the
	// simulator's timers, or the UDP backend's listeners), so concurrent
	// clients genuinely overlap in the demux paths rather than borrowing
	// the single caller's stack.
	f, err := WireFactory(opt.Wire, opt.WireLatency)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	tb, err := bench.BuildOn(stack, f, nil)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	if tb.NewEndpoint == nil {
		return nil, fmt.Errorf("load: stack %s has no concurrent endpoint factory", stack)
	}
	payload := make([]byte, opt.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	eps := make([]bench.Endpoint, clients)
	for i := range eps {
		if eps[i], err = tb.NewEndpoint(i); err != nil {
			return nil, fmt.Errorf("load: endpoint %d: %w", i, err)
		}
	}

	call := func(ep bench.Endpoint) error {
		if !opt.Echo {
			return ep.RoundTrip(payload)
		}
		reply, err := ep.Echo(payload)
		if err != nil {
			return err
		}
		if len(reply) != len(payload) {
			return fmt.Errorf("echo returned %d bytes, sent %d", len(reply), len(payload))
		}
		for i := range reply {
			if reply[i] != payload[i] {
				return fmt.Errorf("echo corrupted byte %d", i)
			}
		}
		return nil
	}

	// Warmup, concurrently so every client's channel is truly open
	// before the window starts.
	var wg sync.WaitGroup
	warmErrs := make([]error, clients)
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep bench.Endpoint) {
			defer wg.Done()
			for c := 0; c < opt.WarmupCalls; c++ {
				if err := call(ep); err != nil {
					warmErrs[i] = err
					return
				}
			}
		}(i, ep)
	}
	wg.Wait()
	for i, err := range warmErrs {
		if err != nil {
			return nil, fmt.Errorf("load: warmup client %d: %w", i, err)
		}
	}

	hist := obs.NewHistogram()
	// Counts and in-flight markers are atomics because the gauge sampler
	// reads them concurrently with the workers during the window.
	counts := make([]atomic.Int64, clients)
	inflight := make([]atomic.Int64, clients)
	var errs atomic.Int64
	var stop atomic.Bool
	start := make(chan struct{})
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep bench.Endpoint) {
			defer wg.Done()
			<-start
			loop := func() {
				for !stop.Load() {
					t0 := time.Now()
					inflight[i].Add(1)
					err := call(ep)
					inflight[i].Add(-1)
					if err != nil {
						errs.Add(1)
						continue
					}
					hist.Observe(time.Since(t0))
					counts[i].Add(1)
				}
			}
			if opt.Labels {
				pprof.Do(context.Background(), pprof.Labels("stack", string(stack)), func(context.Context) { loop() })
			} else {
				loop()
			}
		}(i, ep)
	}

	// XKMON: sample the stack's live-state gauges (plus the engine's own
	// in-flight and cumulative-call series) on the wall clock for the
	// duration of the window. The simulated wire is real-time here, so
	// the real clock is the right time base.
	var sampler *gauge.Sampler
	var set *gauge.Set
	if opt.GaugePeriod > 0 {
		set = gauge.NewSet(0)
		tb.RegisterGauges(set)
		set.Register("load.inflight", func() int64 {
			var n int64
			for i := range inflight {
				n += inflight[i].Load()
			}
			return n
		})
		set.Register("load.calls_total", func() int64 {
			var n int64
			for i := range counts {
				n += counts[i].Load()
			}
			return n
		})
		gauge.RegisterRuntime(set)
		sampler = gauge.NewSampler(set, event.Real(), opt.GaugePeriod)
	}

	// Profile capture is scoped to the measured window: sampling rates
	// are raised just before the clients start and restored right after
	// they stop.
	var pcap prof.Capture
	if opt.ProfileDir != "" {
		stem := filepath.Join(opt.ProfileDir, fmt.Sprintf("%s_c%d", stack, clients))
		pcap = prof.Capture{
			CPUPath:       stem + ".cpu.pb.gz",
			HeapPath:      stem + ".heap.pb.gz",
			MutexPath:     stem + ".mutex.pb.gz",
			BlockPath:     stem + ".block.pb.gz",
			MutexFraction: 1,
		}
		if err := pcap.Start(); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	close(start)
	if sampler != nil {
		sampler.Start()
	}
	time.Sleep(opt.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	if sampler != nil {
		sampler.Stop()
	}
	if err := pcap.Stop(); err != nil {
		return nil, err
	}

	var total int64
	var sum, sumSq float64
	for i := range counts {
		c := counts[i].Load()
		total += c
		sum += float64(c)
		sumSq += float64(c) * float64(c)
	}
	if total == 0 {
		return nil, fmt.Errorf("load: no calls completed (errors: %d)", errs.Load())
	}
	fairness := 1.0
	if sumSq > 0 {
		fairness = sum * sum / (float64(clients) * sumSq)
	}
	lvl := &Level{
		Clients:     clients,
		Calls:       total,
		Errors:      errs.Load(),
		ElapsedMs:   float64(elapsed.Nanoseconds()) / 1e6,
		CallsPerSec: float64(total) / elapsed.Seconds(),
		MeanUs:      float64(hist.Mean().Nanoseconds()) / 1e3,
		P50Us:       float64(hist.Quantile(0.50).Nanoseconds()) / 1e3,
		P99Us:       float64(hist.Quantile(0.99).Nanoseconds()) / 1e3,
		Fairness:    fairness,
	}
	if set != nil {
		lvl.Gauges = set.Snapshot()
	}
	return lvl, nil
}
