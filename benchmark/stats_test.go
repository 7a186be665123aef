package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := sortedMedian([]int32{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("sortedMedian = %v, want 2.5", got)
	}
}

// The slice-median estimator: one slice that met a noisy neighbour
// must not move the reported figure, where it would drag a mean.
func TestSliceMedianIgnoresOneBadSlice(t *testing.T) {
	p := &pass{p25us: []float64{4.6, 4.7, 4.5, 4.6, 40, 4.6, 4.7, 4.5}}
	for _, us := range p.p25us {
		calls := int64(500e3 / us) // a 500 ms slice
		p.windows = append(p.windows, window{calls: calls, wall: 500 * time.Millisecond})
	}
	if got := p.rawCallUs(); got != 4.6 {
		t.Errorf("slice median = %v, want 4.6", got)
	}
	if got, want := p.rawCallsPerS(), 2*math.Floor(500e3/4.6); got != want {
		t.Errorf("calls/s = %v, want %v", got, want)
	}
}

// The reference load cancels the machine's speed: a run in which every
// slice, the reference's included, took 1.5 times as long reports what
// the undisturbed run reports.
func TestReferenceCancelsMachineSpeed(t *testing.T) {
	w := workload{refP25Ns: 500, refCallsPerS: 1e6}
	run := func(slow float64) (us, rate float64) {
		r := &runner{w: w, ref: &pass{}}
		p := &pass{}
		for i := 0; i < 8; i++ {
			wobble := 1 + float64(i%3)/10 // the machine also drifts inside the run
			f := slow * wobble
			r.ref.p25us = append(r.ref.p25us, 0.5*f)
			r.ref.windows = append(r.ref.windows, window{calls: 1e6, wall: time.Duration(f * float64(time.Second))})
			p.gauge = append(p.gauge, i)
			p.p25us = append(p.p25us, 4.6*f)
			p.windows = append(p.windows, window{calls: 100e3, wall: time.Duration(f * float64(time.Second))})
		}
		if call, thru := r.machineSpeed(); slow == 1 && (call > 1 || thru > 1) {
			t.Errorf("machine speed %v, %v on a machine never faster than nominal", call, thru)
		}
		return r.callUs(p), r.callsPerS(p)
	}
	us, rate := run(1)
	slowUs, slowRate := run(1.5)
	if math.Abs(us-4.6) > 1e-9 || math.Abs(rate-100e3) > 1e-3 {
		t.Errorf("nominal machine: %v us, %v calls/s, want 4.6 and 100000", us, rate)
	}
	if math.Abs(slowUs-us) > 1e-9 || math.Abs(slowRate-rate) > 1e-3 {
		t.Errorf("slow machine reports %v us, %v calls/s; nominal %v, %v", slowUs, slowRate, us, rate)
	}
}

// The percentile rule: quote the highest percentile with at least ten
// samples beyond it.
func TestAdmissiblePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{9999, 99.9, false},
		{10000, 99.9, true},
		{999, 99, false},
		{1000, 99, true},
		{19, 50, false},
		{20, 50, true},
	} {
		if got := admissible(c.n, c.p); got != c.want {
			t.Errorf("admissible(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {150, 90}, {5000, 99}, {10000, 99.9}} {
		if got := highestAdmissible(c.n); got != c.want {
			t.Errorf("highestAdmissible(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	samples := make([]int32, 100000)
	for i := range samples {
		samples[i] = int32(i + 1) // 1 ns … 100 µs, uniform
	}
	var h hist
	h.add(samples)
	for _, p := range []float64{50, 99, 99.9} {
		got, ok := h.quantile(p)
		want := p / 100 * float64(len(samples))
		if !ok || math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %v (quotable %v), want %v within 1%%", p, got, ok, want)
		}
	}

	var few hist
	few.add(samples[:9999])
	if _, ok := few.quantile(99.9); ok {
		t.Error("p99.9 quoted from 9999 samples")
	}
	if _, ok := few.quantile(99); !ok {
		t.Error("p99 refused from 9999 samples")
	}

	// Every representable sample lands in a bucket whose midpoint is
	// within the advertised resolution.
	for _, v := range []int32{0, 1, 127, 128, 129, 255, 256, 4600, 1 << 20, math.MaxInt32} {
		mid := histValue(histIndex(v))
		if err := math.Abs(mid - float64(v)); err > 0.5+float64(v)/histSub/2 {
			t.Errorf("sample %d reads back as %v", v, mid)
		}
	}
}

// The batch-median estimator: a stall in one batch must not move the
// per-operation figure, and allocations are counted per operation.
func TestTimeOpBatchMedian(t *testing.T) {
	const batches, ops = 5, 10
	var calls int
	var sink []byte
	ns, allocs := timeOp(batches, ops, func() {
		calls++
		if stalled := calls/ops == 3; stalled {
			time.Sleep(2 * time.Millisecond)
		}
		sink = make([]byte, 64)
	})
	_ = sink
	if ns <= 0 || ns > 1e6 {
		t.Errorf("median batch = %v ns/op; one stalled batch of %d moved it", ns, batches)
	}
	if math.Abs(allocs-1) > 0.2 {
		t.Errorf("allocs/op = %v, want 1", allocs)
	}
}
