// Command xkmon is the XKMON monitor: it renders the always-on gauge
// time-series, saturation-knee summaries, and flight-recorder dumps the
// observability layer collects, either from a report on disk or from a
// live gauge-enabled sweep it drives itself.
//
// Usage:
//
//	xkmon -load rep.json                # replay a sweep: knees + gauges
//	xkmon -load rep.json -series net.deliveries_inflight
//	xkmon -flight crash.flight.json     # render a black-box dump
//	xkmon -live                         # run a small sweep and render it
//	xkmon -live -stacks L_RPC-VIP -clients 1,8,32
//
// The per-level table shows calls/sec, queue depth (frames in flight on
// the simulated wire), CHANNEL/SELECT pool occupancy, and a sparkline
// of one gauge series across the measured window; the stack header adds
// a p99 sparkline across the concurrency sweep and the saturation knee
// when one exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xkernel/internal/bench"
	"xkernel/internal/load"
	"xkernel/internal/obs/flight"
	"xkernel/internal/obs/gauge"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	loadPath := flag.String("load", "", "render a load report written by xkload -json (sweep replay)")
	flightPath := flag.String("flight", "", "render a flight-recorder JSON dump")
	live := flag.Bool("live", false, "run a small gauge-enabled sweep and render it")
	stacksFlag := flag.String("stacks", "", "with -live: comma-separated stack names (default L_RPC-VIP)")
	clientsFlag := flag.String("clients", "", "with -live: comma-separated concurrency levels (default 1,8,32)")
	duration := flag.Duration("duration", 0, "with -live: measured window per level (default 200ms)")
	series := flag.String("series", "load.inflight", "gauge series to sparkline per level")
	width := flag.Int("width", 32, "sparkline width in cells")
	flag.Parse()

	switch {
	case *flightPath != "":
		dump, err := flight.ReadDump(*flightPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkmon: %v\n", err)
			return 1
		}
		renderFlight(&dump)
		return 0
	case *loadPath != "":
		rep, err := load.ReadReport(*loadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkmon: %v\n", err)
			return 1
		}
		renderReport(rep, *series, *width)
		return 0
	case *live:
		opt := load.Options{
			Stacks:   []bench.Stack{bench.LRPCVIP},
			Clients:  []int{1, 8, 32},
			Duration: *duration,
		}
		if opt.Duration == 0 {
			opt.Duration = 200 * 1e6 // 200ms
		}
		if *stacksFlag != "" {
			opt.Stacks = nil
			for _, s := range strings.Split(*stacksFlag, ",") {
				opt.Stacks = append(opt.Stacks, bench.Stack(strings.TrimSpace(s)))
			}
		}
		if *clientsFlag != "" {
			opt.Clients = nil
			for _, c := range strings.Split(*clientsFlag, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(c))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "xkmon: bad client count %q\n", c)
					return 2
				}
				opt.Clients = append(opt.Clients, n)
			}
		}
		rep, err := load.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkmon: %v\n", err)
			return 1
		}
		renderReport(rep, *series, *width)
		return 0
	default:
		fmt.Fprintln(os.Stderr, "xkmon: one of -load, -flight, or -live is required")
		flag.Usage()
		return 2
	}
}

// sparkCells is the eight-level bar alphabet.
var sparkCells = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals as a fixed-width bar strip: the series is
// resampled to width buckets (max within each) and scaled to its peak.
func sparkline(vals []int64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	buckets := make([]int64, width)
	var peak int64
	for i, v := range vals {
		b := i * width / len(vals)
		if v > buckets[b] {
			buckets[b] = v
		}
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return strings.Repeat(string(sparkCells[0]), width)
	}
	var sb strings.Builder
	for _, v := range buckets {
		idx := int(v * int64(len(sparkCells)-1) / peak)
		sb.WriteRune(sparkCells[idx])
	}
	return sb.String()
}

// seriesVals extracts one named series' sample values from a level's
// gauge snapshot.
func seriesVals(gs []gauge.SeriesSnapshot, name string) []int64 {
	for _, s := range gs {
		if s.Name != name {
			continue
		}
		vals := make([]int64, len(s.Samples))
		for i, smp := range s.Samples {
			vals[i] = smp.V
		}
		return vals
	}
	return nil
}

// maxBySuffix reports the peak sample across every series whose name
// ends in suffix (e.g. ".pool_busy" sums nothing — peaks are per-series
// and the largest wins), and whether any such series exists.
func maxBySuffix(gs []gauge.SeriesSnapshot, suffix string) (int64, bool) {
	var peak int64
	found := false
	for _, s := range gs {
		if !strings.HasSuffix(s.Name, suffix) {
			continue
		}
		found = true
		for _, smp := range s.Samples {
			if smp.V > peak {
				peak = smp.V
			}
		}
	}
	return peak, found
}

func renderReport(rep *load.Report, series string, width int) {
	fmt.Printf("xkmon sweep replay: %.0fms/level, payload %dB, wire latency %.0fus, gauge period %.0fms\n",
		rep.Options.DurationMs, rep.Options.Payload, rep.Options.WireLatencyUs, rep.Options.GaugePeriodMs)

	knees := rep.Knees
	if knees == nil {
		knees = load.ComputeKnees(rep)
	}
	kneeBy := make(map[string]load.KneeSummary, len(knees))
	for _, k := range knees {
		kneeBy[k.Stack] = k
	}

	fmt.Println("\nsaturation knees:")
	fmt.Printf("  %-28s %12s %14s\n", "stack", "knee", "calls/sec")
	for _, s := range rep.Stacks {
		k := kneeBy[s.Stack]
		if k.Found {
			fmt.Printf("  %-28s %9d cl %14.0f\n", s.Stack, k.KneeClients, k.CallsPerSec)
		} else {
			fmt.Printf("  %-28s %12s %14s\n", s.Stack, "none", "scales to end")
		}
	}

	for _, s := range rep.Stacks {
		p99s := make([]int64, len(s.Levels))
		for i, l := range s.Levels {
			p99s[i] = int64(l.P99Us)
		}
		fmt.Printf("\n%s   p99 across sweep: %s\n", s.Stack, sparkline(p99s, len(p99s)))
		fmt.Printf("  %8s %11s %9s %7s %7s %6s  %s\n",
			"clients", "calls/sec", "p99 us", "wire q", "pool", "shard", series)
		for _, l := range s.Levels {
			wireQ := cell(maxBySuffix(l.Gauges, "net.deliveries_inflight"))
			pool := cell(maxBySuffix(l.Gauges, ".pool_busy"))
			shard := cell(maxBySuffix(l.Gauges, ".clients.max_shard"))
			fmt.Printf("  %8d %11.0f %9.0f %7s %7s %6s  %s\n",
				l.Clients, l.CallsPerSec, l.P99Us, wireQ, pool, shard,
				sparkline(seriesVals(l.Gauges, series), width))
		}
	}
}

// cell formats a gauge peak, or "-" when the stack has no such series.
func cell(v int64, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatInt(v, 10)
}

func renderFlight(d *flight.Dump) {
	fmt.Printf("flight dump: %s\n", d.Reason)
	fmt.Printf("events: %d held, %d total, %d dropped from the ring\n",
		len(d.Events), d.Total, d.Dropped)
	fmt.Printf("  %6s %12s %-10s %-22s %8s %8s  %s\n",
		"seq", "t (ms)", "kind", "layer", "a", "b", "detail")
	for _, e := range d.Events {
		fmt.Printf("  %6d %12.3f %-10s %-22s %8d %8d  %s\n",
			e.Seq, float64(e.TNs)/1e6, e.Kind, e.Layer, e.A, e.B, e.Detail)
	}
}
