// Command xkanatomy measures the latency anatomy of the paper's RPC
// configurations: it drives null calls through each stack with causal
// span tracing enabled, rebuilds every RPC's cause tree, and prints
// where the microseconds go — per-layer, per-direction exclusive
// times, the critical path, and the wire's serialization/latency/queue
// split. It then verifies the §4.3 compositional arithmetic as an
// invariant: each span must contain its children, siblings must not
// overlap, and layer costs must sum to the end-to-end time within a
// stated epsilon. Any violation makes the exit status nonzero, so the
// tool doubles as the repository's anatomy smoke check.
//
//	xkanatomy                      # Table I four, 200 RPCs each
//	xkanatomy -quick               # 40 RPCs, for CI smoke
//	xkanatomy -stacks M_RPC-VIP    # one configuration
//	xkanatomy -size 4096           # fragmented calls
//	xkanatomy -tree                # print a sample cause tree per stack
//	xkanatomy -trace out/          # Chrome trace JSON per stack (Perfetto)
//	xkanatomy -json anatomy.json   # machine-readable tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xkernel/internal/bench"
	"xkernel/internal/msg"
	"xkernel/internal/obs/anatomy"
	"xkernel/internal/obs/span"
	"xkernel/internal/sim"
)

// table1Stacks is the default sweep: the four configurations of the
// paper's Table I.
var table1Stacks = []bench.Stack{bench.NRPC, bench.MRPCEth, bench.MRPCIP, bench.MRPCVIP}

type stackReport struct {
	Stack      string             `json:"stack"`
	RPCs       int                `json:"rpcs"`
	EndToEndNs int64              `json:"end_to_end_p50_ns"`
	Rows       []anatomy.Row      `json:"rows"`
	Violations []string           `json:"violations,omitempty"`
	Epsilon    anatomy.Epsilon    `json:"epsilon"`
	Integrity  map[string]float64 `json:"integrity"`
}

func main() {
	rpcs := flag.Int("rpcs", 200, "timed null calls per configuration")
	warmup := flag.Int("warmup", 100, "untimed warmup calls per configuration")
	size := flag.Int("size", 0, "request payload bytes (0 = null call)")
	quick := flag.Bool("quick", false, "small run (40 RPCs, 20 warmup) for CI smoke")
	epsFrac := flag.Float64("epsilon", anatomy.DefaultEpsilon.Frac, "relative tolerance for the compositional invariant")
	epsFloorUs := flag.Float64("epsilon-floor-us", float64(anatomy.DefaultEpsilon.FloorNs)/1000, "absolute tolerance floor in microseconds")
	traceDir := flag.String("trace", "", "directory for Chrome trace-event JSON, one file per configuration")
	jsonOut := flag.String("json", "", "write the anatomy reports as JSON to this file")
	tree := flag.Bool("tree", false, "print one sample cause tree and the critical path per configuration")
	stacksFlag := flag.String("stacks", "", "comma-separated configurations (default: the Table I four)")
	flag.Parse()

	if *quick {
		*rpcs, *warmup = 40, 20
	}
	eps := anatomy.Epsilon{Frac: *epsFrac, FloorNs: int64(*epsFloorUs * 1000)}

	stacks := table1Stacks
	if *stacksFlag != "" {
		stacks = nil
		for _, name := range strings.Split(*stacksFlag, ",") {
			s, err := lookupStack(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "xkanatomy: %v\n", err)
				os.Exit(2)
			}
			stacks = append(stacks, s)
		}
	}

	var reports []stackReport
	failed := false
	for _, stack := range stacks {
		rep, err := run(stack, *rpcs, *warmup, *size, eps, *traceDir, *tree)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkanatomy: %s: %v\n", stack, err)
			os.Exit(1)
		}
		reports = append(reports, *rep)
		if len(rep.Violations) > 0 {
			failed = true
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkanatomy: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "xkanatomy: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if failed {
		fmt.Fprintln(os.Stderr, "xkanatomy: compositional invariant violated")
		os.Exit(1)
	}
}

func lookupStack(name string) (bench.Stack, error) {
	for _, s := range bench.Stacks() {
		if strings.EqualFold(string(s), name) {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown stack %q", name)
}

// run drives one configuration with spans enabled and prints its
// anatomy.
func run(stack bench.Stack, rpcs, warmup, size int, eps anatomy.Epsilon, traceDir string, tree bool) (*stackReport, error) {
	tb, _, err := bench.BuildInstrumented(stack, sim.Config{}, nil)
	if err != nil {
		return nil, err
	}
	rec := span.NewRecorder(0)
	tb.SetSpans(rec)

	var payload []byte
	if size > 0 {
		if size > tb.MaxMsg {
			return nil, fmt.Errorf("size %d exceeds stack max message %d", size, tb.MaxMsg)
		}
		payload = msg.MakeData(size)
	}
	for i := 0; i < warmup; i++ {
		if err := tb.End.RoundTrip(payload); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	rec.Enable()
	for i := 0; i < rpcs; i++ {
		sid := rec.Begin("app", span.DirCall, 0, 0, size, rec.NowNs())
		err := tb.End.RoundTrip(payload)
		rec.End(sid, rec.NowNs(), span.ErrString(err))
		if err != nil {
			return nil, fmt.Errorf("rpc %d: %w", i, err)
		}
	}
	rec.Disable()

	spans := rec.Spans()
	a := anatomy.Analyze(spans)
	violations := a.CheckComposition(eps)

	rep := &stackReport{
		Stack:   string(stack),
		RPCs:    rpcs,
		Rows:    a.Table(),
		Epsilon: eps,
		Integrity: map[string]float64{
			"spans":      float64(a.Total),
			"open":       float64(a.Open),
			"reparented": float64(a.Reparented),
			"roots":      float64(len(a.Roots)),
			"dropped":    float64(rec.Dropped()),
		},
	}
	var rootDurs []int64
	for _, r := range a.Roots {
		rootDurs = append(rootDurs, r.Span.Duration())
	}
	sort.Slice(rootDurs, func(i, j int) bool { return rootDurs[i] < rootDurs[j] })
	if len(rootDurs) > 0 {
		rep.EndToEndNs = rootDurs[len(rootDurs)/2]
	}
	for _, v := range violations {
		rep.Violations = append(rep.Violations, v.String())
	}

	printReport(rep, a, tree)
	if traceDir != "" {
		if err := writeTrace(traceDir, stack, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func printReport(rep *stackReport, a *anatomy.Analysis, tree bool) {
	fmt.Printf("\n=== %s: latency anatomy over %d null calls (end-to-end p50 %.1fus) ===\n",
		rep.Stack, rep.RPCs, float64(rep.EndToEndNs)/1000)
	fmt.Printf("%-24s %-8s %7s | %10s %10s | %10s %10s | %7s\n",
		"layer", "dir", "count", "self_p50", "self_p99", "total_p50", "total_p99", "share")
	var selfSum int64
	for _, r := range rep.Rows {
		selfSum += r.SelfSumNs
	}
	for _, r := range rep.Rows {
		share := 0.0
		if selfSum > 0 {
			share = 100 * float64(r.SelfSumNs) / float64(selfSum)
		}
		fmt.Printf("%-24s %-8s %7d | %9.1fu %9.1fu | %9.1fu %9.1fu | %6.1f%%\n",
			r.Layer, r.Dir, r.Count,
			float64(r.SelfP50Ns)/1000, float64(r.SelfP99Ns)/1000,
			float64(r.TotalP50Ns)/1000, float64(r.TotalP99Ns)/1000, share)
		if r.Dir == span.DirWire && r.Count > 0 {
			n := float64(r.Count)
			fmt.Printf("%-24s %-8s %7s |   per-frame: ser %.1fus + lat %.1fus + queue %.1fus\n",
				"", "", "", float64(r.WireSerNs)/n/1000, float64(r.WireLatNs)/n/1000, float64(r.WireQueueNs)/n/1000)
		}
	}
	fmt.Printf("integrity: %d spans, %d roots, %d open, %d reparented, %d dropped\n",
		int(rep.Integrity["spans"]), int(rep.Integrity["roots"]),
		int(rep.Integrity["open"]), int(rep.Integrity["reparented"]), int(rep.Integrity["dropped"]))
	if tree && len(a.Roots) > 0 {
		// The median-duration root is the representative call.
		roots := append([]*anatomy.Node(nil), a.Roots...)
		sort.Slice(roots, func(i, j int) bool {
			return roots[i].Span.Duration() < roots[j].Span.Duration()
		})
		sample := roots[len(roots)/2]
		fmt.Printf("\n--- sample cause tree (median call) ---\n%s", anatomy.FormatTree(sample))
		fmt.Printf("--- critical path ---\n")
		for _, n := range anatomy.CriticalPath(sample) {
			s := &n.Span
			fmt.Printf("  %-28s %8.1fus (self %.1fus)\n",
				s.Layer+"/"+s.Dir, float64(s.Duration())/1000, float64(n.Exclusive())/1000)
		}
	}
	if len(rep.Violations) > 0 {
		fmt.Printf("\nCOMPOSITIONAL INVARIANT VIOLATIONS (%d):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	} else {
		fmt.Printf("compositional invariant held (epsilon %.0f%% or %.0fus floor)\n",
			rep.Epsilon.Frac*100, float64(rep.Epsilon.FloorNs)/1000)
	}
}

func writeTrace(dir string, stack bench.Stack, spans []span.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, string(stack))
	path := filepath.Join(dir, "trace_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := anatomy.WriteChromeTrace(f, spans); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
