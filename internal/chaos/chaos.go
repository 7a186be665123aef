// Package chaos is the deterministic fault-scenario engine and
// invariant-checking harness for the RPC stacks.
//
// The paper's robustness claims (§3.2) — at-most-once execution across
// retransmission, duplicate suppression via channel sequence numbers,
// crash detection via boot ids — are stated for an adversarial network,
// but the benchmark harness only ever exercises a clean wire. This
// package closes that gap: a Scenario scripts faults (partitions, link
// flaps, deterministic frame drops, server crash + reboot) against any
// bench.Stack while a sequential workload of RPC calls runs, and the
// engine checks the invariants that must survive the abuse:
//
//   - at-most-once: the server executed every completed call exactly
//     once, and no failed call more than once;
//   - typed failure: every call finishes — with a reply, xk.ErrTimeout,
//     or xk.ErrPeerRebooted — rather than hanging;
//   - convergence: after the last fault heals, calls succeed again;
//   - bounded retransmission: the client never retransmits more than
//     its configured budget per call;
//   - clean shutdown: no goroutines or pending timer events leak.
//
// Every scripted fault goes through one board, a wire.Injector the
// engine interposes between the stack and whatever backend carries the
// frames. On the simulator everything is driven by a virtual clock, so a
// run's wire log (every frame offered, with what became of it,
// wall-clock excluded) is reproducible bit for bit from the seed and
// scenario.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/obs"
	"xkernel/internal/obs/flight"
	"xkernel/internal/settle"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// Workload is the client activity a scenario runs against: sequential
// round trips through the testbed endpoint.
type Workload struct {
	// Calls is the number of sequential calls; zero means 12.
	Calls int
	// Payload is the request size in bytes; zero means a null call.
	Payload int
	// Echo routes calls through the echo procedure and byte-compares
	// every reply against the request — the check that catches a
	// ledger replay (or anything else) corrupting a reply in flight.
	Echo bool
}

// errEchoMismatch marks a completed call whose echoed reply differed
// from the request; check turns it into a reply-integrity violation.
var errEchoMismatch = errors.New("chaos: echo reply differs from request")

func (w *Workload) fill() {
	if w.Calls == 0 {
		w.Calls = 12
	}
}

// Step is one scripted fault action, fired deterministically at a call
// boundary: all steps with BeforeCall == i run, in order, immediately
// before the workload's i-th call (0-based) starts.
type Step struct {
	BeforeCall int
	Name       string
	Do         func(*Run)
}

// Scenario is a named, ordered fault script.
type Scenario struct {
	Name  string
	Steps []Step
}

// Config parameterizes one chaos run.
type Config struct {
	// Stack names the bench configuration under test.
	Stack bench.Stack
	// Net is the simulated segment's config (seed, probabilistic rates).
	Net sim.Config
	// WireFactory, when set, runs the scenario over a real transport
	// backend instead of the simulator built from Net. The fault steps
	// work the same — the engine wraps every backend's wire in a
	// wire.Injector — and two things differ. The clock: the run lives on
	// the real one (frames take kernel time, so virtual time would race
	// them), which costs the bit-for-bit reproducibility and the
	// pending-timer shutdown check; what remains checkable (and is
	// checked) are the invariants themselves. The capture tap: a real
	// wire has none for clean traffic, so the wire log holds only the
	// vetoed frames. The probabilistic faults in Net are the simulator's
	// and are unavailable here.
	WireFactory wire.Factory
	// Workload is the client activity.
	Workload Workload
	// Scenario is the fault script.
	Scenario Scenario
	// ConvergeTail is how many final calls must succeed for the
	// convergence invariant; zero skips the check (for scenarios that
	// deliberately end broken).
	ConvergeTail int
	// Instrument builds the stack with METER boundaries and collects
	// protocol counters (retransmits, stale-epoch rejects) into it.
	Instrument bool
	// Flight is the black-box recorder the run arms on the wire and
	// feeds with step/call/violation events; nil means the engine
	// creates and enables one of its own.
	Flight *flight.Recorder
	// FlightDir, when non-empty (or via the XK_FLIGHT_DIR environment
	// variable), is where a run that breaks any invariant auto-dumps
	// the flight recorder as JSON for post-mortem.
	FlightDir string
}

// flightDir resolves the dump directory: explicit config first, then
// the environment, else no dump.
func (c *Config) flightDir() string {
	if c.FlightDir != "" {
		return c.FlightDir
	}
	return os.Getenv("XK_FLIGHT_DIR")
}

// CallResult is the outcome of one workload call.
type CallResult struct {
	Index int
	Err   error
}

// Result is what a chaos run produced.
type Result struct {
	Stack    bench.Stack
	Scenario string

	Calls     []CallResult
	Completed int // calls that returned a reply
	Failed    int // calls that returned an error
	Rebooted  int // failures matching xk.ErrPeerRebooted
	TimedOut  int // failures matching xk.ErrTimeout
	Hung      bool

	// Protocol ledgers (zero when the stack has no chaos hooks).
	ServerExecs  int64
	StaleRejects int64
	Retransmits  int64

	// Ledger is the server execution ledger's final counters, nil when
	// the stack has no at-most-once layer.
	Ledger *ledger.Stats
	// LedgerReplays counts replies the server answered from its ledger
	// across a reboot instead of re-executing or rejecting.
	LedgerReplays int64
	// LedgerDump is the path of the ledger-contents JSON written next
	// to the flight dump when the run broke an invariant on a stack
	// with an explicit (suffixed) ledger.
	LedgerDump string

	// Wire is the wire log: "line src>dst disposition len", one line per
	// frame offered to the wire, in offer order — a vetoed frame by the
	// injector's report, a frame that reached the simulator by its
	// capture record (a real wire has no tap, so the log is the vetoes
	// alone). A copy the injector eats at delivery (a broadcast reaching
	// a down link) adds a line of its own. Lines are numbered as they
	// arrive.
	Wire []string

	// Violations lists every invariant the run broke; empty means the
	// stack survived the scenario.
	Violations []string

	// Meter is the run's METER when Config.Instrument was set.
	Meter *obs.Meter

	// Flight is the run's black-box recorder: the last N wire faults,
	// scenario steps, call outcomes, and invariant violations.
	Flight *flight.Recorder
	// FlightDump is the path of the JSON dump written when the run
	// violated an invariant and a dump directory was configured.
	FlightDump string
}

// Run is the live state a Step acts on.
type Run struct {
	Testbed *bench.Testbed
	// Network is the simulator behind the injector when the run is on
	// the simulated wire (its capture tap, gauges and counters; no fault
	// goes through it), nil when Config.WireFactory chose a real backend.
	Network *sim.Network
	// Clock is the virtual clock driving a simulated run; nil on a real
	// wire, where time is the wall's.
	Clock *event.FakeClock

	// clock is the run's time base for scheduled steps: the fake clock
	// on the simulator, the real clock on a real wire.
	clock event.Clock
	// inj is the fault board: every scripted fault on every backend.
	inj *wire.Injector
	// worker watches the goroutine that makes the workload's calls.
	worker *settle.Watch

	clientMAC, serverMAC xk.EthAddr
	partRule             int
	flight               *flight.Recorder
}

// PartitionClientServer splits the segment between the two hosts: an
// unlimited bidirectional drop rule between the two addresses, decided
// when a frame is sent.
func (r *Run) PartitionClientServer() {
	c, s := r.clientMAC, r.serverMAC
	r.partRule = r.inj.DropWhere(func(src, dst xk.EthAddr) bool {
		return (src == c && (dst == s || dst.IsBroadcast())) ||
			(src == s && (dst == c || dst.IsBroadcast()))
	}, 0)
}

// Heal removes the partition.
func (r *Run) Heal() { r.inj.RemoveRule(r.partRule) }

// CrashServer models the server host dying: its link leaves the wire
// and the RPC layer's volatile state is dropped (the boot id advances).
// This goes through the transport seam, so it works on any backend.
func (r *Run) CrashServer() {
	r.Testbed.Wire.Detach(r.Testbed.Server.Link)
	if r.Testbed.ServerReboot != nil {
		r.Testbed.ServerReboot()
	}
}

// RestartServer reattaches the crashed server's link; with the state
// already dropped by CrashServer this completes the reboot.
func (r *Run) RestartServer() {
	ra, ok := r.Testbed.Wire.(wire.Reattacher)
	if !ok {
		panic("chaos: restart server: wire backend has no crash model")
	}
	if err := ra.Reattach(r.Testbed.Server.Link); err != nil {
		panic(fmt.Sprintf("chaos: restart server: %v", err))
	}
}

// ServerLink raises or cuts the server's link (a cable pull, not a crash:
// protocol state survives).
func (r *Run) ServerLink(up bool) { r.setLink(r.serverMAC, up) }

// ClientLink raises or cuts the client's link.
func (r *Run) ClientLink(up bool) { r.setLink(r.clientMAC, up) }

func (r *Run) setLink(addr xk.EthAddr, up bool) { r.inj.SetLinkState(addr, up) }

// DropNext eats the next count frames on the segment, whoever sends
// them.
func (r *Run) DropNext(count int) { r.inj.DropNext(count) }

// DropReplies eats the next count unicast frames from the server to the
// client — replies and explicit acks — leaving requests untouched. The
// match is unicast-only so broadcast traffic cannot consume the budget.
func (r *Run) DropReplies(count int) {
	src, dst := r.serverMAC, r.clientMAC
	r.inj.DropWhere(func(s, d xk.EthAddr) bool { return s == src && d == dst }, count)
}

// CrashClient reboots the client's RPC layer: its boot id advances, so
// the server sees a new client incarnation and retires the dead one's
// channel state and ledger entries. No-op on stacks without the hook.
func (r *Run) CrashClient() {
	if r.Testbed.ClientReboot != nil {
		r.Testbed.ClientReboot()
	}
}

// TearLedger chops n bytes off the server's durable ledger tail — a
// torn append caught mid-write by the crash. No-op unless the testbed
// carries a file ledger.
func (r *Run) TearLedger(n int) {
	f, ok := r.Testbed.Ledger.(*ledger.File)
	if !ok {
		return
	}
	if err := f.Tear(int64(n)); err != nil {
		panic(fmt.Sprintf("chaos: tear ledger: %v", err))
	}
}

// At schedules f to fire once the run's clock has advanced d past the
// current instant — the way a step reaches into the middle of a call
// (a crash after the server executed but before the client's
// retransmission, say). On the simulator the await loop's virtual-clock
// advances fire it; on a real wire it is a wall-clock timer.
func (r *Run) At(d time.Duration, name string, f func(*Run)) {
	r.clock.Schedule(d, func() {
		if r.flight != nil && r.flight.Enabled() {
			r.flight.Record("step", "chaos", name, d.Nanoseconds(), 0)
		}
		f(r)
	})
}

// maxRetriesPerCall is the bound the retransmission invariant enforces:
// every stack here runs its reliability layer at the default budget of 8
// retries per call (plus crash-detection probes on N.RPC, which are
// calls of their own).
const maxRetriesPerCall = 8

// wirePatience is the wall-clock allowance the shutdown check gives a
// real wire backend's listener goroutines to exit after Close; the
// simulator needs none.
const wirePatience = 5 * time.Second

// withClock returns netCfg with the run's clock installed when the
// caller left it unset.
func withClock(netCfg sim.Config, clock *event.FakeClock) sim.Config {
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	return netCfg
}

// Execute runs the scenario's fault script against a freshly built
// stack while the workload's calls run sequentially, then checks the
// invariants. The returned Result always carries the full per-call
// outcome; Violations is empty when the stack survived.
func Execute(cfg Config) (*Result, error) {
	cfg.Workload.fill()
	baseline := runtime.NumGoroutine()

	// The backend decides the clock and nothing else. A real wire runs on
	// the real clock: frames take kernel time, and a virtual clock would
	// burn retransmit budgets while a datagram is still in flight. The
	// simulator runs on a fake clock this driver advances.
	var fake *event.FakeClock
	var clk event.Clock = event.Real()
	inner := cfg.WireFactory
	if inner == nil {
		fake = event.NewFake()
		clk = fake
		inner = sim.Factory(withClock(cfg.Net, fake))
	}
	f := wire.Injected(inner)
	var tb *bench.Testbed
	var meter *obs.Meter
	var err error
	if cfg.Instrument {
		tb, meter, err = bench.BuildInstrumentedOn(cfg.Stack, f, clk)
	} else {
		tb, err = bench.BuildOn(cfg.Stack, f, clk)
	}
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	// Arm the black box: the simulator's own anomalies land in it via
	// the network, scripted vetoes via the injector's hook below, and the
	// engine adds scenario steps and call outcomes. Timestamps are
	// nanoseconds on the run's clock since its epoch, so on the virtual
	// clock a dump is as reproducible as the wire log.
	fr := cfg.Flight
	if fr == nil {
		fr = flight.New(0)
		fr.Enable()
	}
	epoch := clk.Now()
	fr.SetNow(func() int64 { return clk.Now().Sub(epoch).Nanoseconds() })
	tb.SetFlight(fr)

	res := &Result{Stack: cfg.Stack, Scenario: cfg.Scenario.Name, Meter: meter, Flight: fr}
	// One wire log, two feeds: the injector reports each frame it vetoes,
	// the simulator's capture tap each frame that reached the segment.
	// Lines are numbered here, as they arrive, so the two share one
	// ordinal space; a black-box veto event carries its line's number.
	var wireMu sync.Mutex
	logFrame := func(src, dst xk.EthAddr, disp string, size int) int64 {
		wireMu.Lock()
		defer wireMu.Unlock()
		line := len(res.Wire) + 1
		res.Wire = append(res.Wire, fmt.Sprintf("%04d %s>%s %s %d", line, src, dst, disp, size))
		return int64(line)
	}
	inj := tb.Wire.(*wire.Injector)
	inj.OnDrop = func(disp string, src, dst xk.EthAddr, _ int64, size int) {
		line := logFrame(src, dst, disp, size)
		if fr.Enabled() {
			fr.Record("wire", disp, fmt.Sprintf("%s>%s", src, dst), line, int64(size))
		}
	}
	if tb.Network != nil {
		tb.Network.SetCapture(func(rec sim.FrameRecord) {
			logFrame(rec.Src, rec.Dst, rec.Disposition, rec.Len)
		})
	}

	r := &Run{
		Testbed:   tb,
		Network:   tb.Network,
		Clock:     fake,
		clock:     clk,
		inj:       inj,
		clientMAC: tb.Client.Link.Addr(),
		serverMAC: tb.Server.Link.Addr(),
		flight:    fr,
	}

	steps := make([]Step, len(cfg.Scenario.Steps))
	copy(steps, cfg.Scenario.Steps)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].BeforeCall < steps[j].BeforeCall })

	payload := make([]byte, cfg.Workload.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}

	start := make(chan int)
	results := make(chan CallResult)
	watch := make(chan *settle.Watch)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watch <- settle.WatchSelf()
		for i := range start {
			var err error
			if cfg.Workload.Echo {
				var reply []byte
				reply, err = tb.End.Echo(payload)
				if err == nil && !bytes.Equal(reply, payload) {
					err = fmt.Errorf("%w: call %d: got %d bytes, want %d",
						errEchoMismatch, i, len(reply), len(payload))
				}
			} else {
				err = tb.End.RoundTrip(payload)
			}
			results <- CallResult{Index: i, Err: err}
		}
	}()

	r.worker = <-watch

	next := 0
	for i := 0; i < cfg.Workload.Calls && !res.Hung; i++ {
		for next < len(steps) && steps[next].BeforeCall <= i {
			if fr.Enabled() {
				fr.Record("step", "chaos", steps[next].Name, int64(steps[next].BeforeCall), 0)
			}
			steps[next].Do(r)
			next = next + 1
		}
		start <- i
		cr, ok := r.await(results)
		if !ok {
			res.Hung = true
			res.Violations = append(res.Violations,
				fmt.Sprintf("call %d hung: no reply, and no timer pending or the worker never stopped", i))
			break
		}
		res.Calls = append(res.Calls, cr)
		if fr.Enabled() {
			outcome, status := "ok", int64(1)
			if cr.Err != nil {
				outcome, status = cr.Err.Error(), 0
			}
			fr.Record("call", "chaos", outcome, int64(cr.Index), status)
		}
		switch {
		case cr.Err == nil:
			res.Completed++
		default:
			res.Failed++
			if errors.Is(cr.Err, xk.ErrPeerRebooted) {
				res.Rebooted++
			}
			if errors.Is(cr.Err, xk.ErrTimeout) {
				res.TimedOut++
			}
		}
	}
	close(start)
	if !res.Hung {
		wg.Wait()
	}

	// Drain: run every self-terminating timer (fragment send-hold
	// sweeps, gap chases) to completion. Real-clock timers cannot be
	// hurried; the settle patience below covers them.
	if fake != nil {
		for i := 0; i < 10_000; i++ {
			if !fake.AdvanceToNext() {
				break
			}
		}
	}

	if tb.Collect != nil {
		tb.Collect()
	}
	if tb.LedgerStats != nil {
		st := tb.LedgerStats()
		res.Ledger = &st
		if tb.LedgerReplays != nil {
			res.LedgerReplays = tb.LedgerReplays()
		}
		// Recovery telemetry goes into the black box alongside the wire
		// anomalies: how much the ledger carried across the crashes.
		if fr.Enabled() {
			fr.Record("ledger", "chaos", fmt.Sprintf(
				"records=%d recovered=%d torn=%d replays=%d",
				st.Records, st.RecoveredRecords, st.TornTails, res.LedgerReplays),
				st.RecoveredRecords, res.LedgerReplays)
		}
	}
	// A real wire owns real listener goroutines; close it before the
	// shutdown check so the settle pass measures the stack, not the
	// sockets. Closing again via the testbed is a no-op.
	patience := time.Duration(0)
	if fake == nil {
		tb.Wire.Close()
		patience = wirePatience
	}
	res.check(cfg, tb, fake, baseline, patience)

	// Any broken invariant goes into the black box too, then the whole
	// box hits disk — the dump is the post-mortem artifact CI collects.
	if len(res.Violations) > 0 {
		if fr.Enabled() {
			for _, v := range res.Violations {
				fr.Record("violation", "chaos", v, 0, 0)
			}
		}
		if dir := cfg.flightDir(); dir != "" {
			name := dumpName(cfg.Stack, cfg.Scenario.Name)
			path, werr := fr.WriteTo(dir, name, res.Violations[0])
			if werr != nil {
				return res, fmt.Errorf("chaos: flight dump: %w", werr)
			}
			res.FlightDump = path
			// A suffixed-ledger run also dumps the ledger's surviving
			// contents, so the post-mortem can say what was durable.
			if tb.Ledger != nil {
				if path, derr := writeLedgerDump(dir, name, tb.Ledger); derr == nil {
					res.LedgerDump = path
				}
			}
		}
	}
	return res, nil
}

// writeLedgerDump snapshots an execution ledger's stats and surviving
// records as JSON next to the flight dump.
func writeLedgerDump(dir, name string, led ledger.ExecLedger) (string, error) {
	blob, err := json.MarshalIndent(struct {
		Stats   ledger.Stats        `json:"stats"`
		Records []ledger.RecordInfo `json:"records"`
	}{led.Stats(), led.Dump()}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".ledger.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// dumpName flattens a (stack, scenario) pair into a filesystem-safe
// dump basename.
func dumpName(stack bench.Stack, scenario string) string {
	s := string(stack) + "_" + scenario
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// awaitTimeout is how much wall time one call gets before it is declared
// hung: far past the deepest typed-failure path on the real clock (eight
// retransmits at 50ms plus crash-detection probes), and on the virtual
// clock, where a call takes no wall time to speak of, past any stall of
// the machine.
const awaitTimeout = 10 * time.Second

// await waits for the in-flight call to finish. On the virtual clock it
// advances time only once the worker has stopped: parked in its call's
// select with nothing ready, which on the synchronous simulator means
// nothing more happens until a timer fires. That test is exact — it reads
// the worker's state from the runtime (settle.Watch) — so the clock can
// never jump ahead of work the worker has not done yet, however little
// processor the scheduler gives it. Returns ok=false when the call is
// hung: the worker stopped with no timer pending, or (the wall-clock
// backstop, scheduled through the event package so this file stays free
// of time-package calls) never stopped or finished at all.
func (r *Run) await(results chan CallResult) (CallResult, bool) {
	timeout := make(chan struct{})
	ev := event.Real().Schedule(awaitTimeout, func() { close(timeout) })
	defer ev.Cancel()
	if r.Clock == nil {
		// Real clock: the reliability layers' timers fire on their own.
		select {
		case cr := <-results:
			return cr, true
		case <-timeout:
			return CallResult{}, false
		}
	}
	for {
		select {
		case cr := <-results:
			return cr, true
		case <-timeout:
			return CallResult{}, false
		default:
		}
		if !r.worker.Parked() {
			runtime.Gosched()
			continue
		}
		// Parked, but perhaps in the send of its result.
		select {
		case cr := <-results:
			return cr, true
		default:
		}
		if !r.Clock.AdvanceToNext() {
			return CallResult{}, false
		}
	}
}

// check fills Result.Violations from the run's ledgers.
func (res *Result) check(cfg Config, tb *bench.Testbed, clock *event.FakeClock, baseline int, patience time.Duration) {
	if tb.ServerExecs != nil {
		res.ServerExecs = tb.ServerExecs()
	}
	if tb.StaleRejects != nil {
		res.StaleRejects = tb.StaleRejects()
	}
	if tb.Retransmits != nil {
		res.Retransmits = tb.Retransmits()
	}

	// At-most-once: every completed call executed exactly once; a failed
	// call may have executed at most once (it died after the server ran
	// it but before the reply survived).
	if tb.ServerExecs != nil {
		if res.ServerExecs < int64(res.Completed) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"at-most-once: %d calls completed but server executed only %d",
				res.Completed, res.ServerExecs))
		}
		if max := int64(res.Completed + res.Failed); res.ServerExecs > max {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"at-most-once: server executed %d requests for %d calls — a call ran twice",
				res.ServerExecs, max))
		}
	}

	// Reply integrity: no completed-or-failed call returned bytes other
	// than its request's echo (a corrupt ledger replay would land here).
	for _, cr := range res.Calls {
		if errors.Is(cr.Err, errEchoMismatch) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"reply-integrity: %v", cr.Err))
		}
	}

	// Convergence: the healed stack serves the tail of the workload.
	for i := 0; i < cfg.ConvergeTail && i < len(res.Calls); i++ {
		cr := res.Calls[len(res.Calls)-1-i]
		if cr.Err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"convergence: call %d still failing after heal: %v", cr.Index, cr.Err))
		}
	}

	// Bounded retransmission.
	if tb.Retransmits != nil {
		calls := int64(len(res.Calls))
		if probes := cfg.Stack.Base() == bench.NRPC; probes {
			calls *= 2 // every call may be preceded by a crash-detection probe
		}
		if budget := calls * maxRetriesPerCall; res.Retransmits > budget {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"retransmission: %d retransmits for %d calls (budget %d)",
				res.Retransmits, len(res.Calls), budget))
		}
	}

	// Clean shutdown: nothing scheduled, nothing running. Only the
	// virtual clock can enumerate its pending timers; a real-clock run
	// relies on the goroutine settle alone.
	if clock != nil {
		if _, pending := clock.NextDeadline(); pending {
			res.Violations = append(res.Violations, "shutdown: timer events still pending after drain")
		}
	}
	// On the simulator patience is zero — the settle loop only yields,
	// never sleeps. A real wire's listeners get the allowance settle
	// owns (this package stays clockpurity-scoped either way).
	if n := settle.Goroutines(baseline, patience); n > baseline {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"shutdown: %d goroutines leaked (baseline %d, now %d)",
			n-baseline, baseline, n))
	}
}
