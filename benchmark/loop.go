package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/ledger"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
)

const (
	// sliceCap bounds the samples one client records in one slice; a
	// slice ends at its deadline or here, whichever comes first. 2^18
	// int32s is 1 MB per client — small next to the 4 MB heap floor, so
	// the harness does not change how often the collector runs.
	sliceCap = 1 << 18
	// maxSlice is the slice length of a full-length run: long enough
	// for thousands of calls and a dozen collector cycles, short enough
	// that a stack and the reference slice beside it meet the same
	// machine.
	maxSlice = 200 * time.Millisecond
	// minSlices is the fewest slices a pass gets, so a median over
	// slices is a median of something.
	minSlices = 8
	// warmCalls is the fixed warm-up every pass runs after its cold
	// first call: a few collector cycles and every lazily grown pool.
	// It is part of setup_s and deliberately small, so work moved from
	// the call path into binding time is a visible share of that metric.
	warmCalls = 2000
	// traceSpans is how many of a rung's first calls become spans.
	traceSpans = 1024
)

var errMismatch = errors.New("echo reply differs from request")

// runner owns what every pass shares: the generated inputs and the
// preallocated sample buffers. Only one pass runs at a time, so one
// set of buffers serves them all.
type runner struct {
	w      workload
	inputs [][]byte
	bufs   [][]int32 // per client: round-trip ns of each call in the slice
	starts []int64   // client 0: start offsets of the slice's first calls
	merged []int32   // scratch for a multi-client slice median
	warm   int       // warm-up calls per pass: warmCalls in any run worth quoting
	epoch  time.Time // trace time zero
	mutex  []metrics.Sample
	ref    *pass // the reference load: a slice after every slice (reference.go)
}

func newRunner(w workload, seed int64, d time.Duration) *runner {
	r := &runner{
		w:      w,
		inputs: w.inputs(seed),
		warm:   reps(d, warmCalls),
		bufs:   make([][]int32, w.clients),
		starts: make([]int64, traceSpans),
		epoch:  time.Now(),
		mutex:  []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}},
	}
	for i := range r.bufs {
		r.bufs[i] = make([]int32, sliceCap)
	}
	if w.clients > 1 {
		r.merged = make([]int32, 0, w.clients*sliceCap)
	}
	// The reference load is shaped like the workload: the same request
	// size and operation, one shared endpoint for all clients.
	r.ref = syntheticPass(newRefEndpoint(), w.clients)
	r.slice(r.ref, time.Hour, max(1, r.warm/w.clients), false)
	return r
}

// window is what one timed slice saw. Heap and collector counters are
// process-wide, which is why only one pass runs at a time and why they
// are read immediately outside the timed region.
type window struct {
	calls, failed int64
	wall          time.Duration
	mallocs       uint64
	allocBytes    uint64
	gcs           uint32
	gcPauseNs     uint64
	mutexWaitS    float64
}

// span is one traced call on one rung.
type span struct {
	id         int
	start, end int64 // ns since the runner's epoch
}

// counters are the per-testbed totals the count metrics difference.
type counters struct {
	wire        wire.Stats
	retransmits int64
	execs       int64
	ledger      ledger.Stats
}

// pass is one stack under measurement: its testbed, one endpoint per
// client, and everything its slices recorded.
type pass struct {
	stack   bench.Stack
	tb      *bench.Testbed
	eps     []bench.Endpoint
	traced  bool
	buildS  float64 // build both hosts and open the client sessions
	coldS   float64 // first call on a fresh session
	windows []window
	p25us   []float64 // per slice: lower-quartile round trip, the reported statistic
	p50us   []float64 // per slice: median round trip, a diagnostic
	gauge   []int     // per slice: index of the reference slice that ran right after it
	tails   hist
	spans   []span
	before  counters
	err     error // first call error seen, for the report
}

// open builds stack on a fresh synchronous in-memory ethernet, opens one
// endpoint per client, makes the cold first call and runs the warm-up.
func (r *runner) open(stack bench.Stack, clients int, instrumented bool) (*pass, error) {
	p := &pass{stack: stack}
	start := time.Now()
	var err error
	if instrumented {
		p.tb, _, err = bench.BuildInstrumentedOn(stack, sim.Factory(sim.Config{}), nil)
	} else {
		p.tb, err = bench.BuildOn(stack, sim.Factory(sim.Config{}), nil)
	}
	if err != nil {
		return nil, err
	}
	if clients == 1 {
		p.eps = []bench.Endpoint{p.tb.End}
	} else {
		if p.tb.NewEndpoint == nil {
			p.tb.Close()
			return nil, fmt.Errorf("%s: no concurrent endpoints", stack)
		}
		for i := 0; i < clients; i++ {
			ep, err := p.tb.NewEndpoint(i)
			if err != nil {
				p.tb.Close()
				return nil, fmt.Errorf("%s: endpoint %d: %w", stack, i, err)
			}
			p.eps = append(p.eps, ep)
		}
	}
	p.buildS = time.Since(start).Seconds()

	start = time.Now()
	for _, ep := range p.eps {
		if err := r.call(ep, r.inputs[0]); err != nil {
			p.tb.Close()
			return nil, fmt.Errorf("%s: cold call: %w", stack, err)
		}
	}
	p.coldS = time.Since(start).Seconds() / float64(len(p.eps))
	if w := r.slice(p, time.Hour, max(1, r.warm/len(p.eps)), false); w.failed > 0 {
		p.tb.Close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d calls failed: %v", stack, w.failed, w.calls, p.err)
	}
	p.before = p.counters()
	return p, nil
}

// syntheticPass is a pass over an endpoint with no protocol stack
// behind it — the reference load, the no-op that prices the loop — with
// every client on the one endpoint.
func syntheticPass(ep bench.Endpoint, clients int) *pass {
	p := &pass{tb: &bench.Testbed{}}
	for i := 0; i < clients; i++ {
		p.eps = append(p.eps, ep)
	}
	return p
}

func (p *pass) counters() counters {
	c := counters{wire: p.tb.Wire.Stats()}
	if p.tb.Retransmits != nil {
		c.retransmits = p.tb.Retransmits()
	}
	if p.tb.ServerExecs != nil {
		c.execs = p.tb.ServerExecs()
	}
	if p.tb.LedgerStats != nil {
		c.ledger = p.tb.LedgerStats()
	}
	return c
}

// call is the workload's one operation: a null-reply round trip, or an
// echo compared byte for byte.
func (r *runner) call(ep bench.Endpoint, in []byte) error {
	if !r.w.echo {
		return ep.RoundTrip(in)
	}
	out, err := ep.Echo(in)
	if err == nil && !bytes.Equal(out, in) {
		err = errMismatch
	}
	return err
}

// loop is one client's closed loop: the next call starts when the
// previous one returned. It runs until deadline d or limit calls and
// timestamps every call into buf; starts, when non-empty, also keeps the
// first calls' start offsets for the trace. It allocates nothing.
func (r *runner) loop(ep bench.Endpoint, buf []int32, starts []int64, base time.Time, d time.Duration, limit int) (n, failed int, first error) {
	mask := len(r.inputs) - 1
	limit = min(limit, len(buf))
	for n < limit {
		in := r.inputs[n&mask]
		t0 := time.Since(base)
		err := r.call(ep, in)
		t1 := time.Since(base)
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
		if n < len(starts) {
			starts[n] = int64(t0)
		}
		buf[n] = int32(min(t1-t0, math.MaxInt32))
		n++
		if t1 >= d {
			break
		}
	}
	return n, failed, first
}

// slice runs every client of p for d (or limit calls each) and, when
// keep is set, folds the result into p. The collector runs before the
// timed region, never as part of it unless the stack's own garbage
// triggers it.
func (r *runner) slice(p *pass, d time.Duration, limit int, keep bool) window {
	type outcome struct {
		n, failed int
		err       error
	}
	out := make([]outcome, len(p.eps))
	var starts []int64
	if keep && p.traced && len(p.spans) == 0 {
		starts = r.starts
	}
	var (
		wg    sync.WaitGroup
		base  time.Time
		start = make(chan struct{})
	)
	for i, ep := range p.eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var s []int64
			if i == 0 {
				s = starts
			}
			o := &out[i]
			o.n, o.failed, o.err = r.loop(ep, r.bufs[i], s, base, d, limit)
		}()
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	metrics.Read(r.mutex)
	wait0 := r.mutex[0].Value.Float64()
	var execs0 int64
	if p.tb.ServerExecs != nil {
		execs0 = p.tb.ServerExecs()
	}

	base = time.Now()
	close(start)
	wg.Wait()
	w := window{wall: time.Since(base)}

	runtime.ReadMemStats(&m1)
	metrics.Read(r.mutex)
	w.mutexWaitS = r.mutex[0].Value.Float64() - wait0
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcs = m1.NumGC - m0.NumGC
	w.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for _, o := range out {
		w.calls += int64(o.n)
		w.failed += int64(o.failed)
		if p.err == nil {
			p.err = o.err
		}
	}
	// On a lossless wire every successful call ran on the server exactly
	// once; anything else is an at-most-once failure, whatever the
	// client was told.
	if p.tb.ServerExecs != nil {
		if extra := p.tb.ServerExecs() - execs0 - (w.calls - w.failed); extra != 0 {
			w.failed += max(extra, -extra)
			if p.err == nil {
				p.err = fmt.Errorf("server ran %+d requests more than calls succeeded", extra)
			}
		}
	}
	w.failed = min(w.failed, w.calls)
	if !keep {
		return w
	}

	if starts != nil {
		off := base.Sub(r.epoch).Nanoseconds()
		for i := 0; i < min(out[0].n, len(starts)); i++ {
			p.spans = append(p.spans, span{id: i, start: off + starts[i], end: off + starts[i] + int64(r.bufs[0][i])})
		}
	}
	sorted := r.bufs[0][:out[0].n]
	if len(p.eps) > 1 {
		sorted = r.merged[:0]
		for i, o := range out {
			sorted = append(sorted, r.bufs[i][:o.n]...)
		}
	}
	slices.Sort(sorted)
	p.windows = append(p.windows, w)
	p.p25us = append(p.p25us, float64(sorted[len(sorted)/4])/1e3)
	p.p50us = append(p.p50us, sortedMedian(sorted)/1e3)
	p.tails.add(sorted)
	return w
}

// measure shares d between the passes in alternating slices (A B A B …)
// so that drift, thermal state and other tenants of the machine reach
// every pass equally. Every slice is followed by a slice of the
// reference load, which its figures are reported relative to.
func (r *runner) measure(passes []*pass, d time.Duration) {
	perRound := time.Duration(2 * len(passes))
	each := min(maxSlice, d/(minSlices*perRound))
	rounds := int(math.Ceil(float64(d) / float64(each*perRound)))
	for i := 0; i < rounds; i++ {
		for _, p := range passes {
			r.slice(p, each, sliceCap, true)
			p.gauge = append(p.gauge, len(r.ref.windows))
			r.slice(r.ref, each, sliceCap, true)
		}
	}
}

func closeAll(passes []*pass) {
	for _, p := range passes {
		p.tb.Close()
	}
}

// The reductions below turn a pass's slices into reported numbers.

func (p *pass) calls() (calls, failed int64) {
	for _, w := range p.windows {
		calls += w.calls
		failed += w.failed
	}
	return calls, failed
}

func (w window) callsPerS() float64 { return float64(w.calls) / w.wall.Seconds() }

// slowdown is how much slower than nominal the machine was during
// reference slice i, by the two statistics of the reference load that
// the stacks' two kinds of figure follow: its lower-quartile call time
// for a call, and its completed calls per second — collector, stalls
// and stolen CPU included — for anything averaged over wall time.
func (r *runner) slowdown(i int) (call, rate float64) {
	return r.ref.p25us[i] * 1e3 / r.w.refP25Ns, r.w.refCallsPerS / r.ref.windows[i].callsPerS()
}

// callUs is the median over slices of the slice's lower-quartile round
// trip, at the reference's nominal speed.
//
// The lower quartile, not the median: the collector's mark phase is
// active about half the time at these allocation rates, calls under it
// are slower, and the median of a slice sits on the edge between the
// two populations and swings 6–9 % between identical runs with the
// collector's duty cycle. The lower quartile sits inside the faster
// population and repeats to 1–3 %. What the slower population costs is
// in calls per second.
func (r *runner) callUs(p *pass) float64 {
	us := make([]float64, len(p.p25us))
	for i := range us {
		slow, _ := r.slowdown(p.gauge[i])
		us[i] = p.p25us[i] / slow
	}
	return median(us)
}

// callsPerS is the median over slices of calls completed per second of
// slice wall time, all clients summed, at the reference's nominal
// speed — the mean's view of a slice, collector and tail included.
func (r *runner) callsPerS(p *pass) float64 {
	rates := make([]float64, len(p.windows))
	for i, w := range p.windows {
		_, slow := r.slowdown(p.gauge[i])
		rates[i] = w.callsPerS() * slow
	}
	return median(rates)
}

// machineSpeed is the run's median speed relative to nominal, by each
// gauge; 1 is the machine the nominal figures were taken on.
func (r *runner) machineSpeed() (call, rate float64) {
	calls, rates := make([]float64, len(r.ref.windows)), make([]float64, len(r.ref.windows))
	for i := range calls {
		c, s := r.slowdown(i)
		calls[i], rates[i] = 1/c, 1/s
	}
	return median(calls), median(rates)
}

// The same medians over slices as the clock read them.

func (p *pass) rawCallUs() float64 { return median(p.p25us) }

func (p *pass) rawMedianUs() float64 { return median(p.p50us) }

func (p *pass) rawCallsPerS() float64 {
	rates := make([]float64, len(p.windows))
	for i, w := range p.windows {
		rates[i] = w.callsPerS()
	}
	return median(rates)
}

// perCall divides a counter summed over every slice by the calls made.
func (p *pass) perCall(f func(window) float64) float64 {
	calls, _ := p.calls()
	if calls == 0 {
		return 0
	}
	var sum float64
	for _, w := range p.windows {
		sum += f(w)
	}
	return sum / float64(calls)
}

func (p *pass) allocsPerCall() float64 {
	return p.perCall(func(w window) float64 { return float64(w.mallocs) })
}

func (p *pass) allocBytesPerCall() float64 {
	return p.perCall(func(w window) float64 { return float64(w.allocBytes) })
}
