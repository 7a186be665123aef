package chaos

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xkernel/internal/bench"
	"xkernel/internal/obs/flight"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
)

// brokenScenario cuts the server's link before call 1 and never heals
// it, so with a ConvergeTail the convergence invariant must fail — the
// deliberate violation the flight-dump contract is checked against.
func brokenScenario() Scenario {
	return Scenario{
		Name: "permanent-server-link-cut",
		Steps: []Step{
			{BeforeCall: 1, Name: "cut server link", Do: func(r *Run) { r.ServerLink(false) }},
		},
	}
}

// TestFlightDumpOnViolation is the acceptance check for the black box:
// a run that breaks an invariant must leave a JSON dump holding the
// recent wire faults, scenario steps, call outcomes, and the violations
// themselves.
func TestFlightDumpOnViolation(t *testing.T) {
	dir := t.TempDir()
	res, err := Execute(Config{
		Stack:        bench.LRPCVIP,
		Net:          sim.Config{Seed: 7},
		Workload:     Workload{Calls: 3, Payload: 64},
		Scenario:     brokenScenario(),
		ConvergeTail: 1,
		FlightDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("scenario was built to violate convergence but nothing was flagged")
	}
	if res.FlightDump == "" {
		t.Fatal("violated run produced no flight dump")
	}
	if filepath.Dir(res.FlightDump) != dir {
		t.Fatalf("dump %s landed outside %s", res.FlightDump, dir)
	}

	dump, err := flight.ReadDump(res.FlightDump)
	if err != nil {
		t.Fatalf("reading dump back: %v", err)
	}
	if dump.Reason == "" || !strings.Contains(dump.Reason, "convergence") {
		t.Errorf("dump reason %q does not name the violated invariant", dump.Reason)
	}
	kinds := map[string]int{}
	var sawLinkDown, sawViolation bool
	for _, e := range dump.Events {
		kinds[e.Kind]++
		if e.Kind == "wire" && strings.Contains(e.Layer, wire.DropLinkDown) {
			sawLinkDown = true
		}
		if e.Kind == "violation" && strings.Contains(e.Detail, "convergence") {
			sawViolation = true
		}
	}
	for _, k := range []string{"wire", "step", "call", "violation"} {
		if kinds[k] == 0 {
			t.Errorf("dump holds no %q events (kinds: %v)", k, kinds)
		}
	}
	if !sawLinkDown {
		t.Error("no wire event carries the linkdown disposition")
	}
	if !sawViolation {
		t.Error("no violation event names the convergence failure")
	}

	// Timestamps are virtual: monotonically non-decreasing from the
	// run's epoch, never wall-clock-sized.
	var last int64 = -1
	for _, e := range dump.Events {
		if e.TNs < last {
			t.Fatalf("event %d time %d precedes predecessor %d", e.Seq, e.TNs, last)
		}
		last = e.TNs
	}
}

// TestWireLogShowsWhatTheScenarioAte holds the one wire log to the one
// fault board: on the simulator, where the log also carries every clean
// frame, the lines with a veto disposition are exactly the frames the
// injector ate — as many as it counted, in its vocabulary — and the black
// box holds the same events under the same line numbers.
func TestWireLogShowsWhatTheScenarioAte(t *testing.T) {
	vetoes := map[string]bool{wire.DropRuled: true, wire.DropNexted: true, wire.DropLinkDown: true}
	for _, sc := range []Scenario{PartitionReboot(3), BurstDrop(3, 3), LinkFlap(3)} {
		t.Run(sc.Name, func(t *testing.T) {
			var run *Run
			sc.Steps = append(sc.Steps, Step{Name: "observe", Do: func(r *Run) { run = r }})
			res, err := Execute(Config{
				Stack:        bench.LRPCVIP,
				Net:          sim.Config{Seed: 7}, // no loss rate: every drop is the board's
				Workload:     Workload{Calls: 9, Payload: 64},
				Scenario:     sc,
				ConvergeTail: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", res.Violations)
			}
			var ate []string
			for _, line := range res.Wire {
				switch disp := strings.Fields(line)[2]; {
				case vetoes[disp]:
					ate = append(ate, line)
				case disp != sim.FrameDelivered:
					t.Errorf("wire line %q: disposition from nobody's vocabulary", line)
				}
			}
			if want := run.Testbed.Wire.Stats().FramesDropped; want == 0 || int64(len(ate)) != want {
				t.Fatalf("wire log shows %d vetoed frames, the injector ate %d", len(ate), want)
			}
			var boxed []string
			for _, e := range res.Flight.Events() {
				if e.Kind == "wire" {
					boxed = append(boxed, fmt.Sprintf("%04d %s %s %d", e.A, e.Detail, e.Layer, e.B))
				}
			}
			if strings.Join(boxed, "\n") != strings.Join(ate, "\n") {
				t.Fatalf("black box:\n%s\nwire log vetoes:\n%s", strings.Join(boxed, "\n"), strings.Join(ate, "\n"))
			}
		})
	}
}

// TestNoDumpOnCleanRun pins the other half of the contract: a run that
// keeps every invariant writes nothing even with a dump dir configured.
func TestNoDumpOnCleanRun(t *testing.T) {
	dir := t.TempDir()
	res, err := Execute(Config{
		Stack:        bench.LRPCVIP,
		Net:          sim.Config{Seed: 7},
		Workload:     Workload{Calls: 3, Payload: 64},
		Scenario:     Scenario{Name: "no-faults"},
		ConvergeTail: 1,
		FlightDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean run violated: %v", res.Violations)
	}
	if res.FlightDump != "" {
		t.Fatalf("clean run dumped %s", res.FlightDump)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("dump dir not empty: %v", ents)
	}
	// The box still recorded the run's shape for a would-be dump.
	if res.Flight == nil || res.Flight.Len() == 0 {
		t.Fatal("clean run recorded no flight events at all")
	}
}

// TestCallerSuppliedRecorder verifies a disabled caller recorder stays
// disabled (and costs nothing), honoring the guard-first contract.
func TestCallerSuppliedRecorder(t *testing.T) {
	fr := flight.New(16) // never enabled
	res, err := Execute(Config{
		Stack:    bench.LRPCVIP,
		Net:      sim.Config{Seed: 7},
		Workload: Workload{Calls: 2, Payload: 64},
		Scenario: Scenario{Name: "no-faults"},
		Flight:   fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.Len(); got != 0 {
		t.Fatalf("disabled recorder captured %d events", got)
	}
	if res.Flight != fr {
		t.Fatal("result does not carry the caller's recorder")
	}
}
