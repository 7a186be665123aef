// Command xkprof is the compute-side twin of xkanatomy: it decodes
// pprof profiles (CPU, heap, mutex, block) with the stdlib-only reader
// in internal/obs/prof and prints a per-layer resource anatomy — CPU
// self/total nanoseconds, allocation bytes/objects, and lock-wait
// nanoseconds per protocol layer, with mutex samples named in the
// lockorder pass's lock-class vocabulary.
//
// Usage:
//
//	xkprof cpu.pb.gz heap.pb.gz mutex.pb.gz     # decode and print the table
//	xkprof -top 5 cpu.pb.gz                     # largest layers only
//	xkprof -json xkprof.json cpu.pb.gz          # write the kind:"prof" report
//	xkprof -capture profs/ -json xkprof.json    # drive the bench stacks,
//	                                            # capture all four profiles,
//	                                            # decode, report
//
// Profile kinds are detected from sample types; mutex and block
// profiles share a schema, so files whose name contains "block" are
// read as block profiles and other contention profiles as mutex.
// Layer attribution follows the stack=/layer= goroutine labels the
// bench harness plants, with package-path fallback for the unlabeled
// heap/mutex/block samples (DESIGN.md §12).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/obs/prof"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	jsonOut := flag.String("json", "", "write the kind:\"prof\" JSON report to this file (\"-\" for stdout)")
	top := flag.Int("top", 0, "print at most this many layer rows (0 = all)")
	capture := flag.String("capture", "", "capture cpu/heap/mutex/block profiles into this directory by driving the bench stacks, then report")
	stacksFlag := flag.String("stacks", "", "with -capture: comma-separated stack names (default CHANNEL-FRAGMENT-VIP)")
	perStack := flag.Duration("per-stack", 0, "with -capture: labeled-loop duration per stack (default 400ms)")
	clients := flag.Int("clients", 0, "with -capture: contention-phase concurrency (default 4; negative disables)")
	flag.Parse()

	var rep *prof.Report
	var err error
	if *capture != "" {
		rep, err = runCapture(*capture, *stacksFlag, *perStack, *clients)
	} else {
		rep, err = reportFromFiles(flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkprof: %v\n", err)
		return 1
	}

	switch out := *jsonOut; out {
	case "":
		rep.WriteTable(os.Stdout, *top)
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xkprof: %v\n", err)
			return 1
		}
	default:
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkprof: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "xkprof: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xkprof: %v\n", err)
			return 1
		}
		rep.WriteTable(os.Stdout, *top)
		fmt.Printf("wrote %s\n", out)
	}
	return 0
}

// runCapture drives the bench capture harness and builds the report.
func runCapture(dir, stacksFlag string, perStack time.Duration, clients int) (*prof.Report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opt := bench.CaptureOptions{Dir: dir, PerStack: perStack, Clients: clients}
	if stacksFlag != "" {
		for _, s := range strings.Split(stacksFlag, ",") {
			opt.Stacks = append(opt.Stacks, bench.Stack(strings.TrimSpace(s)))
		}
	}
	res, err := bench.CaptureProfiles(opt)
	if err != nil {
		return nil, err
	}
	return bench.ReportFromCapture(res)
}

// reportFromFiles decodes the named profiles, classifying each by its
// sample types (and filename, for the mutex/block ambiguity).
func reportFromFiles(paths []string) (*prof.Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no profiles named (and no -capture); see xkprof -h")
	}
	var cpu, heap, mutex, block *prof.Profile
	for _, path := range paths {
		p, err := prof.ParseFile(path)
		if err != nil {
			return nil, err
		}
		switch kind := classify(path, p); kind {
		case "cpu":
			cpu = p
		case "heap":
			heap = p
		case "mutex":
			mutex = p
		case "block":
			block = p
		default:
			return nil, fmt.Errorf("%s: unrecognized profile (sample types %v)", path, p.SampleTypes)
		}
	}
	return prof.BuildReport(cpu, heap, mutex, block), nil
}

// classify names a profile's kind from its sample types; mutex and
// block share the contentions/delay schema, so the filename breaks
// the tie.
func classify(path string, p *prof.Profile) string {
	switch {
	case p.HasSampleType("cpu"):
		return "cpu"
	case p.HasSampleType("alloc_space"):
		return "heap"
	case p.HasSampleType("contentions"):
		if strings.Contains(strings.ToLower(filepath.Base(path)), "block") {
			return "block"
		}
		return "mutex"
	}
	return ""
}
