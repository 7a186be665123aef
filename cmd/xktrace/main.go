// Command xktrace runs one RPC through a chosen protocol configuration
// with tracing enabled, printing the shepherd's path through the
// protocol and session objects — the runnable counterpart of the
// paper's Figure 1(b).
//
//	xktrace                    # layered RPC, event-level trace
//	xktrace -stack mono        # monolithic Sprite RPC over VIP
//	xktrace -stack bypass      # the §4.3 VIPsize composition
//	xktrace -packets           # per-packet detail
//	xktrace -size 8192         # a fragmented call
//	xktrace -jsonl             # structured JSONL records on stdout
//	xktrace -jsonl -filter vip # only VIP-boundary records (plus app/wire)
//	xktrace -spans             # causal span capture; prints the cause tree
//	xktrace -chaos             # partition+reboot scenario, invariants checked
//	xktrace -chaos -stack mono # same scenario against monolithic Sprite RPC
//
// With -chaos the tool runs the partition+server-reboot scenario from
// the chaos library against the chosen stack instead of tracing one
// call: the workload's calls, typed failures, stale-epoch rejections,
// the full wire log (every frame with its disposition), and the
// invariant verdict are printed.
//
// With -jsonl the graph is composed with an observability wrap at every
// boundary (see xkernel.Metered): stdout carries one JSON record per
// push/pop/call/return/open crossing plus every wire frame, correlated
// leg-by-leg by msgid, and the human-readable trace, the per-layer
// summary table, and the reconstructed path move to stderr.
//
// With -spans the graph is instrumented the same way but the call is
// captured as causal spans (see cmd/xkanatomy for the measurement
// harness): the reconstructed cause tree — every layer crossing, the
// wire transits with their serialization/latency split, the handler —
// is printed with per-span durations and self times.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xkernel"
)

// stacks maps the -stack names onto the measured configurations; the
// graph traced is the table's spec for it, the one bench composes.
var stacks = map[string]xkernel.Stack{
	"layered": xkernel.StackLRPCVIP,
	"mono":    xkernel.StackMRPCVIP,
	"bypass":  xkernel.StackVIPsize,
}

func main() {
	stack := flag.String("stack", "layered", "configuration: layered, mono, or bypass")
	packets := flag.Bool("packets", false, "trace every push/pop/demux, not just events")
	size := flag.Int("size", 0, "request payload bytes (0 = null call)")
	jsonl := flag.Bool("jsonl", false, "emit structured JSONL records on stdout; human output moves to stderr")
	filter := flag.String("filter", "", "with -jsonl, keep only records whose layer contains this substring")
	spans := flag.Bool("spans", false, "capture the call as causal spans and print the cause tree")
	chaosRun := flag.Bool("chaos", false, "run the partition+reboot chaos scenario against the stack instead of tracing a call")
	flag.Parse()

	target, ok := stacks[*stack]
	if !ok {
		fmt.Fprintf(os.Stderr, "xktrace: unknown stack %q (want layered, mono, or bypass)\n", *stack)
		os.Exit(1)
	}

	if *chaosRun {
		if err := runChaos(target, *size); err != nil {
			fmt.Fprintf(os.Stderr, "xktrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	human := io.Writer(os.Stdout)
	if *jsonl {
		human = os.Stderr
	}
	xkernel.SetTraceOutput(human)
	if *packets {
		xkernel.SetTraceLevel(xkernel.TracePackets)
	} else {
		xkernel.SetTraceLevel(xkernel.TraceEvents)
	}

	if err := run(human, target, *size, *jsonl, *filter, *spans); err != nil {
		fmt.Fprintf(os.Stderr, "xktrace: %v\n", err)
		os.Exit(1)
	}
}

func run(human io.Writer, stack xkernel.Stack, size int, jsonl bool, filter string, spans bool) error {
	spec := xkernel.StackSpec(stack)
	client, server, network, err := xkernel.TwoHosts(xkernel.NetConfig{}, nil)
	if err != nil {
		return err
	}

	var meter *xkernel.Meter
	var tracer *xkernel.Tracer
	var path []xkernel.TraceEvent
	if jsonl || spans {
		meter = xkernel.NewMeter()
		client.SetMeter(meter)
		server.SetMeter(meter)
		spec = xkernel.Metered(spec)
	}
	var rec *xkernel.SpanRecorder
	if spans {
		rec = xkernel.NewSpanRecorder(0)
		meter.SetSpans(rec)
		network.SetSpans(rec)
	}
	if jsonl {
		tracer = xkernel.NewTracer(os.Stdout)
		if filter != "" {
			tracer.SetFilter(xkernel.TraceFilterSubstring(filter))
		}
		tracer.SetObserver(func(ev xkernel.TraceEvent) {
			if ev.Event != "frame" {
				path = append(path, ev)
			}
		})
		meter.SetTracer(tracer)
		network.SetCapture(func(r xkernel.FrameRecord) {
			tracer.EmitDetail("wire", "frame", 0, r.Len, "",
				fmt.Sprintf("%s %s->%s", r.Disposition, r.Src, r.Dst))
		})
	}

	if err := client.Compose(spec); err != nil {
		return err
	}
	if err := server.Compose(spec); err != nil {
		return err
	}

	fmt.Fprintln(human, "--- client kernel ---")
	fmt.Fprint(human, client.Graph())
	fmt.Fprintln(human, "--- server kernel ---")
	fmt.Fprint(human, server.Graph())
	fmt.Fprintf(human, "--- one call, %d-byte request ---\n", size)

	echo := func(_ uint16, args *xkernel.Msg) (*xkernel.Msg, error) {
		return xkernel.NewMsg(args.Bytes()), nil
	}

	var sess xkernel.Session
	if stack == xkernel.StackMRPCVIP {
		srv, err := server.MRPC("mrpc")
		if err != nil {
			return err
		}
		srv.Register(1, echo)
		cli, err := client.MRPC("mrpc")
		if err != nil {
			return err
		}
		sess, err = cli.Open(xkernel.NewApp("app", nil),
			&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
		if err != nil {
			return err
		}
	} else {
		ssel, err := server.Select("select")
		if err != nil {
			return err
		}
		ssel.Register(1, echo)
		csel, err := client.Select("select")
		if err != nil {
			return err
		}
		sess, err = csel.Open(xkernel.NewApp("app", nil),
			&xkernel.Participants{Remote: xkernel.NewParticipant(server.Addr())})
		if err != nil {
			return err
		}
	}

	if tracer != nil {
		tracer.Emit("app", "call", 0, size, "")
	}
	var sid uint64
	if rec != nil {
		rec.Enable()
		sid = rec.Begin("app", "call", 0, 0, size, rec.NowNs())
	}
	reply, err := sess.(interface {
		CallBytes(uint16, []byte) ([]byte, error)
	}).CallBytes(1, xkernel.MakeData(size))
	if rec != nil {
		rec.End(sid, rec.NowNs(), "")
		rec.Disable()
	}
	if err != nil {
		return err
	}
	if tracer != nil {
		tracer.Emit("app", "return", 0, len(reply), "")
		if err := tracer.Flush(); err != nil {
			return err
		}
	}
	xkernel.FlushTrace()
	fmt.Fprintf(human, "--- reply: %d bytes ---\n", len(reply))

	if jsonl {
		printSummary(human, meter, path)
	}
	if rec != nil {
		a := xkernel.AnalyzeSpans(rec.Spans())
		fmt.Fprintf(human, "\n--- cause tree (%d spans, %d open) ---\n", a.Total, a.Open)
		for _, root := range a.Roots {
			fmt.Fprint(human, xkernel.FormatSpanTree(root))
		}
	}
	return nil
}

// printSummary renders the per-layer counter table and the
// msgid-correlated path of the traced call.
func printSummary(w io.Writer, m *xkernel.Meter, path []xkernel.TraceEvent) {
	fmt.Fprintf(w, "\n--- per-layer summary ---\n")
	fmt.Fprintf(w, "%-18s %7s %7s %8s %6s %11s %11s %10s %10s\n",
		"layer", "pushes", "pops", "demuxes", "drops", "bytes_down", "bytes_up", "push_p50", "push_p99")
	for _, ls := range m.Snapshot() {
		fmt.Fprintf(w, "%-18s %7d %7d %8d %6d %11d %11d %10s %10s\n",
			ls.Layer, ls.Pushes, ls.Pops, ls.Demuxes, ls.Drops,
			ls.BytesDown, ls.BytesUp,
			us(ls.PushLatency.P50Ns), us(ls.PushLatency.P99Ns))
	}
	fmt.Fprintf(w, "\n--- reconstructed path ---\n")
	for _, ev := range path {
		fmt.Fprintf(w, "  seq=%-4d %-18s %-7s msgid=%-4d len=%d\n",
			ev.Seq, ev.Layer, ev.Event, ev.MsgID, ev.Len)
	}
}

// us renders a nanosecond quantity in microseconds.
func us(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fus", float64(ns)/1000)
}

// runChaos drives the partition+server-reboot scenario against the
// chosen stack and prints the call ledger, wire log, and invariant
// verdict.
func runChaos(target xkernel.Stack, size int) error {
	const calls = 12
	res, err := xkernel.ChaosExecute(xkernel.ChaosConfig{
		Stack:        target,
		Net:          xkernel.NetConfig{Seed: 7},
		Workload:     xkernel.ChaosWorkload{Calls: calls, Payload: size},
		Scenario:     xkernel.ChaosPartitionReboot(calls / 3),
		ConvergeTail: 3,
		Instrument:   true,
	})
	if err != nil {
		return err
	}

	fmt.Printf("--- chaos: %s against %s ---\n", res.Scenario, res.Stack)
	for _, c := range res.Calls {
		status := "ok"
		if c.Err != nil {
			status = c.Err.Error()
		}
		fmt.Printf("  call %2d: %s\n", c.Index, status)
	}
	fmt.Printf("--- ledger ---\n")
	fmt.Printf("  completed=%d failed=%d (rebooted=%d timed-out=%d)\n",
		res.Completed, res.Failed, res.Rebooted, res.TimedOut)
	fmt.Printf("  server executions=%d stale-epoch rejects=%d retransmits=%d\n",
		res.ServerExecs, res.StaleRejects, res.Retransmits)
	fmt.Printf("--- wire (%d frames) ---\n", len(res.Wire))
	for _, line := range res.Wire {
		fmt.Printf("  %s\n", line)
	}
	if len(res.Violations) > 0 {
		fmt.Printf("--- INVARIANTS VIOLATED ---\n")
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	fmt.Printf("--- invariants held: at-most-once, convergence, bounded retransmission, clean shutdown ---\n")
	return nil
}
