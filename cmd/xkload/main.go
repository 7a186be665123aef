// Command xkload drives the concurrent multi-client workload engine:
// N closed-loop clients calling through a chosen RPC stack over the
// shared simulator, N swept upward, reporting aggregate calls/sec,
// latency quantiles (p50/p99), and Jain-fairness across clients at
// each level.
//
// Usage:
//
//	xkload                               # default stacks, N in {1,8,64}
//	xkload -stacks L_RPC-VIP,M_RPC-VIP   # choose stacks
//	xkload -clients 1,4,16,64,256        # choose the sweep
//	xkload -payload 2048 -echo           # verified echo workload
//	xkload -wire udp                     # real UDP loopback sockets as the wire
//	xkload -durability                   # durability-tax sweep (ledger × engine)
//	xkload -json rep.json                # write the JSON report (xkmon -load renders it)
//	xkload -cpuprofile cpu.pb.gz -labels # profile the run, stack= labels on
//	xkload -profile-dir profs/           # one profile set per (stack, N) cell
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xkernel/internal/bench"
	"xkernel/internal/load"
	"xkernel/internal/obs/prof"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	stacksFlag := flag.String("stacks", "", "comma-separated stack names (default: the load engine's standard set)")
	clientsFlag := flag.String("clients", "", "comma-separated concurrency levels (default 1,8,64)")
	duration := flag.Duration("duration", 0, "measured window per level (default 300ms)")
	payload := flag.Int("payload", 0, "request payload bytes (default 64)")
	echo := flag.Bool("echo", false, "use the verified echo workload instead of null calls")
	durability := flag.Bool("durability", false, "sweep the durability-tax stack set (ledger policies × engines) instead of the standard set")
	wireLatency := flag.Duration("wire-latency", 0, "simulated one-way frame latency (default 150us; sim backend only)")
	wireFlag := flag.String("wire", "", "transport backend: sim (default) or udp (real loopback sockets)")
	gaugePeriod := flag.Duration("gauge-period", 0, "XKMON gauge sampling period (default the monitor's; negative disables)")
	jsonOut := flag.String("json", "", "write the JSON report to this file (\"-\" for stdout) instead of the text table")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile to this file at exit")
	labels := flag.Bool("labels", false, "run each client under a {stack=<name>} pprof label set")
	profileDir := flag.String("profile-dir", "", "capture one profile set per (stack, clients) cell into this directory")
	flag.Parse()

	opt := load.Options{
		Duration:    *duration,
		Payload:     *payload,
		Echo:        *echo,
		WireLatency: *wireLatency,
		Wire:        *wireFlag,
		GaugePeriod: *gaugePeriod,
		ProfileDir:  *profileDir,
		Labels:      *labels,
	}
	if _, err := load.WireFactory(*wireFlag, 0); err != nil {
		fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
		return 2
	}
	if *durability {
		opt.Stacks = load.DurabilityStacks
	}
	if *stacksFlag != "" {
		opt.Stacks = nil
		for _, s := range strings.Split(*stacksFlag, ",") {
			opt.Stacks = append(opt.Stacks, bench.Stack(strings.TrimSpace(s)))
		}
	}
	if *clientsFlag != "" {
		for _, c := range strings.Split(*clientsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "xkload: bad client count %q\n", c)
				return 2
			}
			opt.Clients = append(opt.Clients, n)
		}
	}

	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
			return 1
		}
	}
	pcap := prof.Capture{
		CPUPath:   *cpuprofile,
		HeapPath:  *memprofile,
		MutexPath: *mutexprofile,
		BlockPath: *blockprofile,
	}
	if err := pcap.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
		return 1
	}
	defer func() {
		if err := pcap.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
		}
	}()

	rep, err := load.Run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
		return 1
	}

	switch out := *jsonOut; out {
	case "":
		printReport(rep)
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
			return 1
		}
	default:
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xkload: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	return 0
}

func printReport(rep *load.Report) {
	wire := rep.Options.Wire
	if wire == "" {
		wire = load.WireSim
	}
	latency := fmt.Sprintf("wire latency %.0fus", rep.Options.WireLatencyUs)
	if wire != load.WireSim {
		latency = "kernel-scheduled delivery"
	}
	fmt.Printf("load sweep: %.0fms/level, payload %dB, echo=%v, wire %s, %s\n",
		rep.Options.DurationMs, rep.Options.Payload, rep.Options.Echo, wire, latency)
	fmt.Printf("%-28s %8s | %10s %10s %10s %10s %9s\n",
		"stack", "clients", "calls/sec", "p50 us", "p99 us", "mean us", "fairness")
	for _, s := range rep.Stacks {
		for _, l := range s.Levels {
			fmt.Printf("%-28s %8d | %10.0f %10.0f %10.0f %10.0f %9.3f\n",
				s.Stack, l.Clients, l.CallsPerSec, l.P50Us, l.P99Us, l.MeanUs, l.Fairness)
			if l.Errors > 0 {
				fmt.Printf("%-28s %8s | %d errors\n", "", "", l.Errors)
			}
		}
	}
}
