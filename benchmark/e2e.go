package main

import (
	"fmt"
	"runtime"
	"time"

	"xkernel/internal/bench"
)

// setupRounds is how many times a run sets up before it measures; the
// median is setup_s. The first round also pays the process's cold
// start, which the median drops.
const setupRounds = 15

// setupGauge is how long the reference load runs beside each round.
const setupGauge = 25 * time.Millisecond

// The two stacks every workload drives: the paper's Table II.
var e2eStacks = []struct {
	prefix string
	stack  bench.Stack
}{
	{"lrpc", bench.LRPCVIP},
	{"mrpc", bench.MRPCVIP},
}

// runEndToEnd measures what a caller sees: set-up time, then both
// stacks in alternating slices for d.
func runEndToEnd(w workload, seed int64, d time.Duration) (*result, error) {
	r := newRunner(w, seed, d)
	var (
		passes []*pass
		setups []float64
	)
	for i, rounds := 0, reps(d, setupRounds); i < rounds; i++ {
		closeAll(passes)
		passes = passes[:0]
		runtime.GC() // every round starts from the same heap
		start := time.Now()
		for _, s := range e2eStacks {
			p, err := r.open(s.stack, w.clients, false)
			if err != nil {
				closeAll(passes)
				return nil, err
			}
			passes = append(passes, p)
		}
		elapsed := time.Since(start).Seconds()
		// Set-up is wall time over a fixed amount of work, so it is
		// reported relative to the reference's calls per second, gauged
		// right beside the round: the machine drifts within the second
		// the rounds take.
		gauge := r.slice(r.ref, setupGauge, sliceCap, false)
		setups = append(setups, elapsed*gauge.callsPerS()/w.refCallsPerS)
	}
	defer closeAll(passes)
	settle()

	r.measure(passes, d)

	res := &result{correct: true, values: map[string]float64{"setup_s": median(setups)}}
	for i, s := range e2eStacks {
		p := passes[i]
		res.values[s.prefix+"_call_us_p25"] = r.callUs(p)
		res.values[s.prefix+"_calls_per_s"] = r.callsPerS(p)
		res.values[s.prefix+"_allocs_per_call"] = p.allocsPerCall()
		res.values[s.prefix+"_alloc_bytes_per_call"] = p.allocBytesPerCall()
		res.tally(p)
	}
	return res, nil
}

// tally counts a pass's calls into the result and holds the run to the
// lossless wire it was promised: a failed call, a dropped frame or a
// frame without a destination makes the run incorrect.
func (res *result) tally(p *pass) {
	calls, failed := p.calls()
	res.attempted += calls
	res.failed += failed
	after := p.tb.Wire.Stats()
	lost := after.FramesDropped + after.FramesNoDest - p.before.wire.FramesDropped - p.before.wire.FramesNoDest
	if failed > 0 || lost > 0 {
		res.correct = false
		if res.note == "" {
			res.note = fmt.Sprintf("%s: %d of %d calls failed, %d frames lost: %v", p.stack, failed, calls, lost, p.err)
		}
	}
}

// settle lets the timers of torn-down testbeds (FRAGMENT's 10 ms send
// hold) fire before anything is timed.
func settle() {
	time.Sleep(20 * time.Millisecond)
}
