package load

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xkernel/internal/bench"
)

// short windows keep the suite quick; the scaling assertions below only
// need enough calls for the ratios to be unambiguous.
func quickOpt() Options {
	return Options{Duration: 150 * time.Millisecond, WarmupCalls: 2}
}

// TestLevelScalesWithClients holds each stack's scaling shape as a ratio
// of two cells of one run, so machine speed divides out. On a
// latency-bound wire N clients overlap their waits and throughput grows
// with N as far as the stack's own locking lets it: L_RPC-VIP's
// 8-channel pool approaches 8x at N=8, and CHANNEL-FRAGMENT-VIP, which
// opens a channel per client, was recorded at 126x from N=1 to N=64
// (EXPERIMENTS.md). The floors sit far below both — a lock widened
// across a call serializes the stack and turns the N-client cell back
// into the N=1 cell, which reaches neither.
func TestLevelScalesWithClients(t *testing.T) {
	for _, c := range []struct {
		stack   bench.Stack
		clients int
		floor   float64
	}{
		{bench.LRPCVIP, 8, 2},
		{bench.ChanFragVIP, 64, 8},
	} {
		opt := quickOpt()
		l1, err := RunLevel(c.stack, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := RunLevel(c.stack, c.clients, opt)
		if err != nil {
			t.Fatal(err)
		}
		if l1.Errors != 0 || ln.Errors != 0 {
			t.Fatalf("%s: errors during load: N=1 %d, N=%d %d", c.stack, l1.Errors, c.clients, ln.Errors)
		}
		if ln.CallsPerSec < c.floor*l1.CallsPerSec {
			t.Errorf("%s: no concurrency: N=%d %.0f calls/sec vs N=1 %.0f, want at least %.0fx",
				c.stack, c.clients, ln.CallsPerSec, l1.CallsPerSec, c.floor)
		}
		if ln.Fairness < 0.5 {
			t.Errorf("%s: fairness %.3f: some client starved", c.stack, ln.Fairness)
		}
		if l1.P50Us <= 0 || l1.P99Us < l1.P50Us {
			t.Errorf("%s: bad quantiles: p50=%.0fus p99=%.0fus", c.stack, l1.P50Us, l1.P99Us)
		}
	}
}

func TestEchoWorkloadVerifies(t *testing.T) {
	opt := quickOpt()
	opt.Echo = true
	opt.Payload = 2000 // crosses the fragmentation boundary
	lvl, err := RunLevel(bench.MRPCVIP, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Errors != 0 {
		t.Fatalf("%d echo mismatches or failures", lvl.Errors)
	}
	if lvl.Calls == 0 {
		t.Fatal("no calls completed")
	}
}

// TestReportRoundTrip: a sweep written with WriteJSON reads back cell
// for cell — what xkmon -load renders from.
func TestReportRoundTrip(t *testing.T) {
	opt := quickOpt()
	opt.Stacks = []bench.Stack{bench.MRPCVIP}
	opt.Clients = []int{1, 4}
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rep.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("report round trip changed the report:\n wrote %+v\n read  %+v", rep, back)
	}
}

func TestSweepGaugesAndKnees(t *testing.T) {
	opt := quickOpt()
	opt.Stacks = []bench.Stack{bench.LRPCVIP}
	opt.Clients = []int{1, 4}
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range rep.Stacks[0].Levels {
		if len(lvl.Gauges) == 0 {
			t.Fatalf("level N=%d carries no gauge series", lvl.Clients)
		}
		byName := make(map[string]int)
		var sampled int
		for _, s := range lvl.Gauges {
			byName[s.Name] = len(s.Samples)
			if s.Total > 0 {
				sampled++
			}
		}
		for _, want := range []string{
			"load.inflight", "load.calls_total",
			"net.deliveries_inflight",
			"client/channel.calls_inflight",
			"server/select.pool_busy",
			"go.goroutines",
		} {
			if _, ok := byName[want]; !ok {
				t.Errorf("level N=%d missing series %q", lvl.Clients, want)
			}
		}
		if sampled == 0 {
			t.Errorf("level N=%d: no series holds samples", lvl.Clients)
		}
	}
	if len(rep.Knees) != 1 || rep.Knees[0].Stack != string(bench.LRPCVIP) {
		t.Fatalf("knees = %+v, want one entry for %s", rep.Knees, bench.LRPCVIP)
	}

	// A negative period switches collection off.
	opt.GaugePeriod = -1
	lvl, err := RunLevel(bench.LRPCVIP, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Gauges != nil {
		t.Fatalf("GaugePeriod<0 still collected %d series", len(lvl.Gauges))
	}
}

func TestComputeKnees(t *testing.T) {
	mk := func(stack string, cells ...[2]float64) StackReport {
		sr := StackReport{Stack: stack}
		for _, c := range cells {
			sr.Levels = append(sr.Levels, Level{Clients: int(c[0]), CallsPerSec: c[1]})
		}
		return sr
	}
	rep := &Report{Stacks: []StackReport{
		// Scales 1→8, flat 8→64: knee at 8 clients.
		mk("PLATEAU", [2]float64{1, 1000}, [2]float64{8, 8000}, [2]float64{64, 8100}),
		// Keeps scaling linearly: no knee inside the sweep.
		mk("LINEAR", [2]float64{1, 1000}, [2]float64{8, 8000}, [2]float64{64, 64000}),
	}}
	knees := ComputeKnees(rep)
	if len(knees) != 2 {
		t.Fatalf("got %d knees", len(knees))
	}
	if !knees[0].Found || knees[0].KneeClients != 8 || knees[0].CallsPerSec != 8000 {
		t.Errorf("plateau knee = %+v, want found at 8 clients", knees[0])
	}
	if knees[1].Found {
		t.Errorf("linear sweep reported a knee: %+v", knees[1])
	}
}

// TestTableReportRejected: ReadReport refuses JSON of another kind — the
// kindless table report older xkbench builds wrote, and xkprof's.
func TestTableReportRejected(t *testing.T) {
	for _, doc := range []string{
		`{"table":1,"configs":[{"stack":"X"}]}`,
		`{"kind":"prof","stacks":[{"stack":"X"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "other.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadReport(path); err == nil {
			t.Errorf("ReadReport accepted %s", doc)
		}
	}
}
