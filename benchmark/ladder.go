package main

import (
	"fmt"
	"time"

	"xkernel/internal/bench"
)

// vipOnlyMax is the largest request the bare VIP rung is given: VIP
// alone sends one packet, so it runs only well under the 1500-byte MTU.
const vipOnlyMax = 1024

// rungsFor lists the Table III ladder for a workload, shortest stack
// first. The two shortest rungs are push rigs — no reply payload, no
// concurrent callers, and bare VIP no fragmentation — so a workload
// starts at the lowest rung that can carry its operation.
func rungsFor(w workload) []bench.Stack {
	var rungs []bench.Stack
	if push := !w.echo && w.clients == 1; push {
		if w.size <= vipOnlyMax {
			rungs = append(rungs, bench.VIPOnly)
		}
		rungs = append(rungs, bench.FragVIP)
	}
	return append(rungs, bench.ChanFragVIP, bench.SelChanFragVIP, bench.MRPCEth, bench.MRPCIP, bench.MRPCVIP)
}

// cost is what one call on a rung costs.
type cost struct{ us, allocs, bytes float64 }

func (r *runner) cost(p *pass) cost {
	return cost{r.callUs(p), p.allocsPerCall(), p.allocBytesPerCall()}
}

func (c cost) minus(o cost) cost {
	return cost{c.us - o.us, c.allocs - o.allocs, c.bytes - o.bytes}
}

// noopEndpoint answers at once: driving it through the loop prices the
// loop itself.
type noopEndpoint struct{}

func (noopEndpoint) RoundTrip([]byte) error        { return nil }
func (noopEndpoint) Echo(p []byte) ([]byte, error) { return p, nil }

// setupProbes is how many fresh builds the set-up anatomy takes the
// median of.
const setupProbes = 5

// runTraced produces the per-layer metrics. Nothing inside the stacks
// is instrumented: each layer is priced from outside by driving the
// stack that ends at it through its top layer's public interface and
// subtracting the stack one layer shorter, on the same inputs, in
// interleaved slices. Every rung call is a span; the first traceSpans
// of each rung are written to tracePath.
func runTraced(w workload, seed int64, d time.Duration, tracePath string) (*result, error) {
	r := newRunner(w, seed, d)
	res := &result{correct: true, values: make(map[string]float64, len(perLayer))}
	v := res.values

	for _, s := range e2eStacks {
		var builds, colds []float64
		for i, probes := 0, reps(d, setupProbes); i < probes; i++ {
			p, err := r.open(s.stack, w.clients, false)
			if err != nil {
				return nil, err
			}
			p.tb.Close()
			builds = append(builds, p.buildS*1e6)
			colds = append(colds, p.coldS*1e6)
		}
		v["setup."+s.prefix+"_build_us"] = median(builds)
		v["setup."+s.prefix+"_cold_call_us"] = median(colds)
	}

	var passes []*pass
	defer func() { closeAll(passes) }()
	open := func(stack bench.Stack, clients int, instrumented, traced bool) (*pass, error) {
		p, err := r.open(stack, clients, instrumented)
		if err != nil {
			return nil, err
		}
		p.traced = traced
		passes = append(passes, p)
		return p, nil
	}
	rungs := make(map[string]*pass)
	for _, stack := range rungsFor(w) {
		p, err := open(stack, w.clients, false, true)
		if err != nil {
			return nil, err
		}
		rungs[string(stack)] = p
	}
	lrpc, mrpc := rungs[string(bench.SelChanFragVIP)], rungs[string(bench.MRPCVIP)]
	bypass, err := open(bench.SelChanVIPsize, w.clients, false, false)
	if err != nil {
		return nil, err
	}
	wrapped, err := open(bench.LRPCVIP, w.clients, true, false)
	if err != nil {
		return nil, err
	}
	plain, err := open(bench.LRPCVIP, w.clients, false, false)
	if err != nil {
		return nil, err
	}
	solo := map[string]*pass{}
	if w.clients > 1 {
		for _, s := range e2eStacks {
			if solo[s.prefix], err = open(s.stack, 1, false, false); err != nil {
				return nil, err
			}
		}
	}
	settle()

	r.measure(passes, d)

	// The ladder: a rung's cost, and each layer as rung minus rung below.
	// A rung the workload cannot run leaves its metrics at 0.
	put := func(prefix string, c cost) {
		v[prefix+"_us"], v[prefix+"_allocs"], v[prefix+"_alloc_bytes"] = c.us, c.allocs, c.bytes
	}
	for _, l := range ladderLayers {
		var self cost
		if top, below := rungs[l.rung], rungs[l.below]; top != nil && below != nil {
			self = r.cost(top).minus(r.cost(below))
		}
		put(l.layer+".self", self)
	}
	for _, rung := range floorRungs {
		var abs cost
		if p := rungs[rung]; p != nil {
			abs = r.cost(p)
		}
		put(topLayer[rung]+".rung", abs)
	}

	// §4.3: the layer costs predict what bypassing FRAGMENT saves.
	lrpcUs, mrpcUs, plainUs, bypassUs := r.callUs(lrpc), r.callUs(mrpc), r.callUs(plain), r.callUs(bypass)
	v["vipsize.bypass_us"] = bypassUs
	v["vipsize.bypass_predicted_us"], v["vipsize.prediction_error_pct"] = 0, 0
	if rungs[string(bench.FragVIP)] != nil && rungs[string(bench.VIPOnly)] != nil {
		predicted := lrpcUs - v["fragment.self_us"]
		v["vipsize.bypass_predicted_us"] = predicted
		v["vipsize.prediction_error_pct"] = 100 * (predicted - bypassUs) / bypassUs
	}

	// Counts at the boundaries, per stack.
	payload := float64(w.size)
	if w.echo {
		payload *= 2
	}
	var lost int64
	for _, s := range []struct {
		prefix, layer string
		p             *pass
	}{{"lrpc", "channel", lrpc}, {"mrpc", "mrpc", mrpc}} {
		now, was := s.p.counters(), s.p.before
		n, _ := s.p.calls()
		calls := float64(n)
		wireBytes := float64(now.wire.BytesSent-was.wire.BytesSent) / calls
		v["eth."+s.prefix+"_frames_per_call"] = float64(now.wire.FramesSent-was.wire.FramesSent) / calls
		v["sim."+s.prefix+"_wire_bytes_per_call"] = wireBytes
		v["sim."+s.prefix+"_header_overhead_pct"] = 100 * (wireBytes - payload) / wireBytes
		v[s.layer+".retransmits_per_call"] = float64(now.retransmits-was.retransmits) / calls
		v[s.layer+".execs_per_call"] = float64(now.execs-was.execs) / calls
		v["ledger."+s.prefix+"_appends_per_call"] = float64(now.ledger.Appends-was.ledger.Appends) / calls
		v["ledger."+s.prefix+"_bytes_held"] = float64(now.ledger.Bytes)
		lost += now.wire.FramesDropped + now.wire.FramesNoDest - was.wire.FramesDropped - was.wire.FramesNoDest

		// The caller's view and the runtime's.
		for _, q := range []struct {
			name string
			p    float64
		}{{"p99", 99}, {"p999", 99.9}} {
			ns, ok := s.p.tails.quantile(q.p)
			v["app."+s.prefix+"_call_us_"+q.name] = ns / 1e3
			if !ok {
				res.refused = append(res.refused, fmt.Sprintf("%s %s (%d samples support p%g)", s.prefix, q.name, s.p.tails.n, highestAdmissible(s.p.tails.n)))
			}
		}
		v["app."+s.prefix+"_call_us_p25_raw"] = s.p.rawCallUs()
		v["app."+s.prefix+"_call_us_p50"] = s.p.rawMedianUs()
		v["app."+s.prefix+"_calls_per_s_raw"] = s.p.rawCallsPerS()
		v["app."+s.prefix+"_scaling"] = 1
		if one := solo[s.prefix]; one != nil {
			v["app."+s.prefix+"_scaling"] = r.callsPerS(s.p) / (float64(w.clients) * r.callsPerS(one))
		}
		v["runtime."+s.prefix+"_gc_per_kcall"] = 1e3 * s.p.perCall(func(w window) float64 { return float64(w.gcs) })
		v["runtime."+s.prefix+"_gc_pause_us_per_kcall"] = s.p.perCall(func(w window) float64 { return float64(w.gcPauseNs) })
		v["runtime."+s.prefix+"_mutex_wait_us_per_call"] = 1e6 * s.p.perCall(func(w window) float64 { return w.mutexWaitS })
	}
	v["sim.dropped_frames"] = float64(lost)
	v["app.layering_ratio"] = lrpcUs / mrpcUs
	v["app.clients"] = float64(w.clients)
	v["app.machine_speed_call"], v["app.machine_speed_rate"] = r.machineSpeed()
	v["app.trace_overhead_pct"] = 100 * (lrpcUs - plainUs) / plainUs
	v["obs.wrap_overhead_us"] = r.callUs(wrapped) - plainUs
	v["obs.wrap_overhead_allocs"] = wrapped.allocsPerCall() - plain.allocsPerCall()

	for _, p := range passes {
		res.tally(p)
	}
	v["app.failed_share"] = float64(res.failed) / float64(res.attempted)

	r.harness(res, mrpc.rawMedianUs())
	substrate(v, reps(d, subBatches))
	return res, writeTrace(tracePath, w, rungs)
}

// harness drives a no-op endpoint through the identical loop. The
// benchmark must measure the stack, not itself: the run is refused if
// the loop allocates or costs more than 5 % of the monolithic round trip.
func (r *runner) harness(res *result, mrpcUs float64) {
	p := syntheticPass(noopEndpoint{}, r.w.clients)
	var ns []float64
	for i := 0; i < minSlices; i++ {
		w := r.slice(p, time.Hour, sliceCap, true)
		ns = append(ns, float64(w.wall.Nanoseconds())/float64(sliceCap))
	}
	perCall, allocs := median(ns), p.allocsPerCall()
	res.values["app.harness_ns_per_call"], res.values["app.harness_allocs_per_call"] = perCall, allocs
	if allocs > 1e-3 {
		res.refused = append(res.refused, fmt.Sprintf("the measuring loop allocates %.4f objects per call", allocs))
	}
	if perCall > 0.05*mrpcUs*1e3 {
		res.refused = append(res.refused, fmt.Sprintf("the measuring loop costs %.0f ns per call, over 5%% of the %.2f us monolithic round trip", perCall, mrpcUs))
	}
}
