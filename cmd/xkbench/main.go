// Command xkbench regenerates the paper's evaluation tables (Tables
// I–III and the §4.3 dynamic-layer-removal experiment) plus the
// supplementary measurements (UDP/IP round trip, FRAGMENT-alone
// throughput, VIP push overhead), printing this implementation's
// measurements beside the published Sun 3/75 numbers.
//
// Absolute values differ — the substrate is an in-memory simulator on a
// modern machine, not two Sun 3/75s on a physical ethernet — but the
// orderings, ratios and crossovers the paper argues from are expected to
// hold; EXPERIMENTS.md records both.
//
// Usage:
//
//	xkbench                         # everything
//	xkbench -table 1                # just Table I
//	xkbench -extra udp              # just the UDP/IP round trip
//	xkbench -quick                  # fewer iterations
//	xkbench -cpuprofile cpu.out     # profile the run (stack= labels on)
package main

import (
	"flag"
	"fmt"
	"os"

	"xkernel/internal/bench"
	"xkernel/internal/load"
	"xkernel/internal/model"
	"xkernel/internal/obs/prof"
	"xkernel/internal/sim"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	tableFlag := flag.Int("table", 0, "regenerate only this table (1-4); 0 means all")
	extraFlag := flag.String("extra", "", "run one supplementary measurement: udp, fragment, vip")
	quick := flag.Bool("quick", false, "fewer iterations for a fast pass")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile to this file at exit")
	wireFlag := flag.String("wire", "", "transport backend: sim (default) or udp (real loopback sockets)")
	flag.Parse()

	wf, err := load.WireFactory(*wireFlag, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
		return 2
	}
	var opt Options
	if *wireFlag != "" && *wireFlag != load.WireSim {
		opt.WireFactory = wf
	}
	if *quick {
		opt.LatencyIters, opt.SweepIters, opt.Warmup = 1000, 50, 50
	}

	pcap := prof.Capture{
		CPUPath:   *cpuprofile,
		HeapPath:  *memprofile,
		MutexPath: *mutexprofile,
		BlockPath: *blockprofile,
	}
	if err := pcap.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := pcap.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
		}
	}()

	if *extraFlag != "" {
		if err := runExtra(*extraFlag, opt); err != nil {
			fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
			return 1
		}
		return 0
	}

	run := func(n int, f func() error) bool {
		if *tableFlag != 0 && *tableFlag != n {
			return true
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "xkbench: table %d: %v\n", n, err)
			return false
		}
		return true
	}
	if !run(1, func() error { return bench.Table1(os.Stdout, opt) }) ||
		!run(2, func() error { return bench.Table2(os.Stdout, opt) }) ||
		!run(3, func() error { _, err := bench.Table3(os.Stdout, opt); return err }) ||
		!run(4, func() error { return bench.Table4(os.Stdout, opt) }) {
		return 1
	}

	if *tableFlag == 0 {
		for _, extra := range []string{"udp", "fragment", "vip"} {
			if err := runExtra(extra, opt); err != nil {
				fmt.Fprintf(os.Stderr, "xkbench: extra %s: %v\n", extra, err)
				return 1
			}
		}
	}
	return 0
}

func runExtra(name string, opt Options) error {
	switch name {
	case "udp":
		return extraUDP(opt)
	case "fragment":
		return extraFragment(opt)
	case "vip":
		return extraVIPOverhead(opt)
	default:
		return fmt.Errorf("unknown extra %q (want udp, fragment, or vip)", name)
	}
}

// Options aliases bench.Options for the helpers below.
type Options = bench.Options

// extraUDP measures the §1 claim: the UDP/IP user-to-user round trip
// (2.00 msec in the x-kernel vs 5.36 msec in SunOS on Sun 3/75s).
func extraUDP(opt Options) error {
	tb, err := bench.Build(bench.UDPIP, sim.Config{}, nil)
	if err != nil {
		return err
	}
	lat, frames, err := bench.MeasureLatency(tb, opt)
	if err != nil {
		return err
	}
	fmt.Printf("\nSection 1: UDP/IP round trip\n")
	fmt.Printf("  measured %.1f us (%.0f frames/rtt); paper: 2.00 ms x-kernel vs 5.36 ms SunOS 4.0\n",
		float64(lat.Nanoseconds())/1000, frames)
	return nil
}

// extraFragment measures the §4.2 claim that FRAGMENT by itself achieves
// at least the layered stack's throughput (865 vs 839 kbytes/sec).
func extraFragment(opt Options) error {
	tb, err := bench.Build(bench.FragVIP, sim.Config{}, nil)
	if err != nil {
		return err
	}
	sweep, _, err := bench.MeasureSweep(tb, opt)
	if err != nil {
		return err
	}
	lat := sweep[16*1024]
	fmt.Printf("\nSection 4.2: FRAGMENT by itself\n")
	fmt.Printf("  16k round trip %.1f us; wire-model throughput %.0f kB/s; paper: 865 kB/s\n",
		float64(lat.Nanoseconds())/1000, model.Sun3Ethernet.Throughput(16*1024, lat))
	return nil
}

// extraVIPOverhead isolates the per-message cost of VIP's length test by
// comparing M.RPC-VIP with M.RPC-ETH (paper: 0.06 msec, §4.1).
func extraVIPOverhead(opt Options) error {
	viaVIP, err := bench.Measure(bench.MRPCVIP, opt)
	if err != nil {
		return err
	}
	viaEth, err := bench.Measure(bench.MRPCEth, opt)
	if err != nil {
		return err
	}
	delta := viaVIP.Latency - viaEth.Latency
	if delta < 0 {
		delta = 0
	}
	fmt.Printf("\nSection 4.1: VIP overhead on the local case\n")
	fmt.Printf("  M_RPC-VIP %.1f us - M_RPC-ETH %.1f us = %.2f us per round trip; paper: 0.06 ms\n",
		float64(viaVIP.Latency.Nanoseconds())/1000,
		float64(viaEth.Latency.Nanoseconds())/1000,
		float64(delta.Nanoseconds())/1000)
	return nil
}
