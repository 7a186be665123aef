package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"xkernel/internal/model"
	"xkernel/internal/msg"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
)

// Options tunes a measurement run. The paper executed each test 10,000
// times and averaged over several repetitions; the defaults follow suit
// but stay adjustable for quick runs.
type Options struct {
	// LatencyIters is the number of null round trips per latency
	// measurement; zero means 10000.
	LatencyIters int
	// SweepIters is the number of round trips per message size in the
	// throughput sweep; zero means 300.
	SweepIters int
	// SweepSizes are the request payload sizes; nil means 1k…16k in 1k
	// steps, the paper's range.
	SweepSizes []int
	// Warmup rounds before timing; zero means 100.
	Warmup int
	// Repeats re-runs each timed loop and keeps the fastest result,
	// damping GC and scheduler noise at microsecond scale; zero means
	// 3.
	Repeats int
	// WireFactory selects the transport the testbeds are built over;
	// nil means a fresh simulated segment per stack. Measuring over
	// the UDP backend prices the seam against real sockets.
	WireFactory wire.Factory
}

func (o *Options) fill() {
	if o.LatencyIters == 0 {
		o.LatencyIters = 10000
	}
	if o.SweepIters == 0 {
		o.SweepIters = 300
	}
	if o.Warmup == 0 {
		o.Warmup = 100
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.SweepSizes == nil {
		for n := 1024; n <= 16*1024; n += 1024 {
			o.SweepSizes = append(o.SweepSizes, n)
		}
	}
}

// Result is one configuration's measurements.
type Result struct {
	Stack Stack
	// Latency is the mean null round-trip time (CPU path through the
	// simulator; the wire adds the same serialization time to every
	// configuration, so orderings carry over).
	Latency time.Duration
	// SweepLatency maps request size to mean round-trip time.
	SweepLatency map[int]time.Duration
	// IncrementalPerKB is the regression slope of round-trip time over
	// request size — the paper's "Incremental Cost (msec/1k-bytes)"
	// without the wire.
	IncrementalPerKB time.Duration
	// ThroughputCPU is 16k-message throughput limited only by this
	// implementation's CPU path, in kbytes/sec.
	ThroughputCPU float64
	// ThroughputWire is the same workload bounded by the paper's
	// 10 Mbps ethernet model — the number comparable to Table I/II.
	ThroughputWire float64
	// IncrementalWirePerKB adds the modeled wire time per kilobyte to
	// the measured slope, comparable to the paper's column.
	IncrementalWirePerKB time.Duration
	// Frames counts frames on the wire during the latency test, per
	// round trip.
	FramesPerNullRPC float64
}

// MeasureLatency runs the null-call latency test on a fresh testbed.
// The timed loop runs under a {stack=<name>} pprof label set, so a CPU
// profile collected across a whole table attributes samples per
// configuration.
func MeasureLatency(tb *Testbed, opt Options) (best time.Duration, frames float64, err error) {
	opt.fill()
	pprof.Do(context.Background(), pprof.Labels("stack", string(tb.Stack)), func(context.Context) {
		for i := 0; i < opt.Warmup; i++ {
			if err = tb.End.RoundTrip(nil); err != nil {
				return
			}
		}
		for r := 0; r < opt.Repeats; r++ {
			runtime.GC()
			framesStart := tb.Wire.Stats().FramesSent
			start := time.Now()
			for i := 0; i < opt.LatencyIters; i++ {
				if err = tb.End.RoundTrip(nil); err != nil {
					return
				}
			}
			elapsed := time.Since(start) / time.Duration(opt.LatencyIters)
			if r == 0 || elapsed < best {
				best = elapsed
				frames = float64(tb.Wire.Stats().FramesSent-framesStart) / float64(opt.LatencyIters)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return best, frames, nil
}

// MeasureSweep runs the large-message workload (request of each size,
// null reply) and fits the incremental cost per kilobyte. Like
// MeasureLatency, the loop carries a {stack=<name>} pprof label set.
func MeasureSweep(tb *Testbed, opt Options) (out map[int]time.Duration, slope time.Duration, err error) {
	opt.fill()
	out = make(map[int]time.Duration, len(opt.SweepSizes))
	pprof.Do(context.Background(), pprof.Labels("stack", string(tb.Stack)), func(context.Context) {
		for _, n := range opt.SweepSizes {
			if n > tb.MaxMsg {
				continue
			}
			payload := msg.MakeData(n)
			for i := 0; i < opt.Warmup/10+1; i++ {
				if err = tb.End.RoundTrip(payload); err != nil {
					err = fmt.Errorf("size %d: %w", n, err)
					return
				}
			}
			var best time.Duration
			for r := 0; r < opt.Repeats; r++ {
				runtime.GC()
				start := time.Now()
				for i := 0; i < opt.SweepIters; i++ {
					if err = tb.End.RoundTrip(payload); err != nil {
						err = fmt.Errorf("size %d: %w", n, err)
						return
					}
				}
				elapsed := time.Since(start) / time.Duration(opt.SweepIters)
				if r == 0 || elapsed < best {
					best = elapsed
				}
			}
			out[n] = best
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return out, slopePerKB(out), nil
}

// slopePerKB least-squares fits latency against size and returns the
// slope per 1024 bytes.
func slopePerKB(points map[int]time.Duration) time.Duration {
	if len(points) < 2 {
		return 0
	}
	var n, sx, sy, sxx, sxy float64
	for size, lat := range points {
		x := float64(size)
		y := float64(lat.Nanoseconds())
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / denom // ns per byte
	return time.Duration(slope * 1024)
}

// drain lets held message copies age out and returns the heap to a
// small steady state, so one configuration's garbage does not tax the
// next one's timing.
func drain() {
	time.Sleep(15 * time.Millisecond)
	runtime.GC()
}

// Measure runs the full workload for one stack.
func Measure(stack Stack, opt Options) (*Result, error) {
	opt.fill()
	r := &Result{Stack: stack}

	f := opt.WireFactory
	if f == nil {
		f = sim.Factory(sim.Config{})
	}
	tb, err := BuildOn(stack, f, nil)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	drain()
	r.Latency, r.FramesPerNullRPC, err = MeasureLatency(tb, opt)
	if err != nil {
		return nil, err
	}
	if tb.MaxMsg >= 16*1024 && stack != VIPOnly {
		drain()
		r.SweepLatency, r.IncrementalPerKB, err = MeasureSweep(tb, opt)
		if err != nil {
			return nil, err
		}
		if lat, ok := r.SweepLatency[16*1024]; ok {
			r.ThroughputCPU = float64(16) / lat.Seconds() // 16 kbytes per round trip
			r.ThroughputWire = model.Sun3Ethernet.Throughput(16*1024, lat)
		}
		r.IncrementalWirePerKB = r.IncrementalPerKB + model.Sun3Ethernet.SerializationTime(1024)
	}
	return r, nil
}

// PaperRow holds the published Sun 3/75 numbers for side-by-side
// presentation.
type PaperRow struct {
	Latency     string
	Throughput  string
	Incremental string
}

// PaperNumbers reproduces Tables I–III and §4.3 from the paper text.
var PaperNumbers = map[Stack]PaperRow{
	NRPC:           {"2.6", "700+", "1.2"},
	MRPCEth:        {"1.73", "863", "1.04"},
	MRPCIP:         {"2.10", "836", "1.05"},
	MRPCVIP:        {"1.79", "860", "1.04"},
	LRPCVIP:        {"1.93", "839", "1.03"},
	VIPOnly:        {"1.12", "", ""},
	FragVIP:        {"1.33", "", ""},
	ChanFragVIP:    {"1.82", "", ""},
	SelChanFragVIP: {"1.93", "", ""},
	SelChanVIPsize: {"1.78", "", ""},
	UDPIP:          {"2.00", "", ""},
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// Table1 regenerates Table I: Evaluating VIP.
func Table1(w io.Writer, opt Options) error {
	return table(w, "Table I: Evaluating VIP",
		[]Stack{NRPC, MRPCEth, MRPCIP, MRPCVIP}, opt)
}

// Table2 regenerates Table II: Monolithic RPC versus Layered RPC.
func Table2(w io.Writer, opt Options) error {
	return table(w, "Table II: Monolithic RPC versus Layered RPC",
		[]Stack{MRPCVIP, LRPCVIP}, opt)
}

// table prints latency/throughput/incremental rows for the stacks.
func table(w io.Writer, title string, stacks []Stack, opt Options) error {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-30s | %14s %14s | %12s %12s | %12s %12s\n",
		"Configuration", "Latency(us)", "paper(ms)", "Tput(kB/s)", "paper", "Incr(us/kB)", "paper(ms/kB)")
	fmt.Fprintf(w, "%s\n", line(30+2+14+1+14+3+12+1+12+3+12+1+12))
	for _, s := range stacks {
		r, err := Measure(s, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		p := PaperNumbers[s]
		fmt.Fprintf(w, "%-30s | %14s %14s | %12.0f %12s | %12s %12s\n",
			r.Stack, us(r.Latency), p.Latency, r.ThroughputWire, p.Throughput,
			us(r.IncrementalPerKB), p.Incremental)
	}
	return nil
}

// Table3 regenerates Table III: Cost of Individual RPC Layers, with the
// incremental per-layer column computed exactly as the paper does —
// each row minus the row above it.
func Table3(w io.Writer, opt Options) ([]time.Duration, error) {
	stacks := []Stack{VIPOnly, FragVIP, ChanFragVIP, SelChanFragVIP}
	fmt.Fprintf(w, "\nTable III: Cost of Individual RPC Layers\n")
	fmt.Fprintf(w, "%-30s | %14s %14s | %14s %14s\n",
		"Configuration", "Latency(us)", "paper(ms)", "IncrCost(us)", "paper(ms)")
	fmt.Fprintf(w, "%s\n", line(30+2+14+1+14+3+14+1+14))
	paperIncr := []string{"NA", "0.21", "0.49", "0.11"}
	var lats []time.Duration
	var prev time.Duration
	for i, s := range stacks {
		r, err := Measure(s, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		incr := "NA"
		if i > 0 {
			incr = us(r.Latency - prev)
		}
		fmt.Fprintf(w, "%-30s | %14s %14s | %14s %14s\n",
			r.Stack, us(r.Latency), PaperNumbers[s].Latency, incr, paperIncr[i])
		prev = r.Latency
		lats = append(lats, r.Latency)
	}
	return lats, nil
}

// Table4 regenerates the §4.3 dynamic-layer-removal experiment,
// including the paper's prediction arithmetic applied to this
// implementation's own measured layer costs.
func Table4(w io.Writer, opt Options) error {
	lats, err := Table3(io.Discard, opt)
	if err != nil {
		return err
	}
	vipOnly, fragVIP, full := lats[0], lats[1], lats[3]
	fragCost := fragVIP - vipOnly

	mono, err := Measure(MRPCVIP, opt)
	if err != nil {
		return err
	}
	monoEth, err := Measure(MRPCEth, opt)
	if err != nil {
		return err
	}
	vipOverhead := mono.Latency - monoEth.Latency
	if vipOverhead < 0 {
		vipOverhead = 0
	}
	predicted := model.BypassPrediction(full, fragCost, vipOverhead)

	bypass, err := Measure(SelChanVIPsize, opt)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nSection 4.3: Dynamically Removing Layers\n")
	fmt.Fprintf(w, "%-34s | %14s %14s\n", "Configuration", "Latency(us)", "paper(ms)")
	fmt.Fprintf(w, "%s\n", line(34+2+14+1+14))
	fmt.Fprintf(w, "%-34s | %14s %14s\n", SelChanFragVIP, us(full), PaperNumbers[SelChanFragVIP].Latency)
	fmt.Fprintf(w, "%-34s | %14s %14s\n", SelChanVIPsize+" (predicted)", us(predicted), "1.78")
	fmt.Fprintf(w, "%-34s | %14s %14s\n", SelChanVIPsize+" (measured)", us(bypass.Latency), PaperNumbers[SelChanVIPsize].Latency)
	fmt.Fprintf(w, "%-34s | %14s %14s\n", MRPCVIP+" (monolithic)", us(mono.Latency), PaperNumbers[MRPCVIP].Latency)
	fmt.Fprintf(w, "  (prediction = full stack %s - FRAGMENT %s + VIPsize test %s)\n",
		us(full), us(fragCost), us(vipOverhead))
	return nil
}

func line(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
