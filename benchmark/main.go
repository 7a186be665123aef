// Command benchmark is the one instrument a performance claim about
// this repository may cite. It drives the paper's two RPC stacks —
// layered L_RPC-VIP (SELECT-CHANNEL-FRAGMENT-VIP) and monolithic
// M_RPC-VIP — in closed loops from one process over the synchronous
// in-memory ethernet, and reports medians over alternating slices,
// relative to a reference load that gauges the machine's speed beside
// every slice (reference.go). No frame crosses a real link: the numbers
// are the CPU path through the protocol code, which is what the
// paper's orderings are about. See README.md.
//
//	go run ./benchmark -workload null_rpc -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer metrics, measured from outside the way the paper did — the
// Table III ladder of progressively taller stacks, differenced rung by
// rung — and writes the rungs' spans to trace.jsonl. -selfcheck runs
// every workload twice and holds the two runs to the metrics' bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "one of "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "generates the payload bytes")
	seconds := flag.Int("seconds", defaultSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "1: per-layer metrics and trace.jsonl; 0: end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare against the bounds")
	flag.Parse()

	d := time.Duration(*seconds) * time.Second
	if *selfcheck {
		if !runSelfcheck(os.Stdout, *seed, d) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%s} -seed <n> [-seconds <n>] [-trace 0|1] | -selfcheck\n", strings.Join(names, "|"))
		os.Exit(2)
	}

	var (
		res  *result
		err  error
		defs = endToEnd
	)
	if *trace != 0 {
		defs = perLayer
		res, err = runTraced(w, *seed, d, "trace.jsonl")
	} else {
		res, err = runEndToEnd(w, *seed, d)
	}
	if err == nil {
		err = res.check(defs)
	}
	if err == nil && len(res.refused) > 0 {
		err = fmt.Errorf("these numbers must not be quoted: %s", strings.Join(res.refused, "; "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w, defs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// print writes every metric as "name value unit" and, as the last
// line, the one JSON object the driver reads.
func (r *result) print(out *os.File, w workload, defs []metricDef) error {
	fmt.Fprintf(out, "# %s: %d closed-loop client(s), %d-byte request, in-memory ethernet (no real link crossed)\n", w.name, w.clients, w.size)
	if r.note != "" {
		fmt.Fprintf(out, "# INCORRECT: %s\n", r.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", d.name, r.values[d.name], d.unit)
		metrics[d.name] = value{r.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
