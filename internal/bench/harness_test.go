package bench

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/settle"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	udpwire "xkernel/internal/wire/udp"
)

// tiny makes table generation fast enough for unit tests.
var tiny = Options{LatencyIters: 50, SweepIters: 5, Warmup: 5, Repeats: 1,
	SweepSizes: []int{1024, 16 * 1024}}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if err := Table2(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if _, err := Table3(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if err := Table4(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I: Evaluating VIP",
		"N_RPC", "M_RPC-ETH", "M_RPC-IP", "M_RPC-VIP",
		"Table II: Monolithic RPC versus Layered RPC",
		"L_RPC-VIP",
		"Table III: Cost of Individual RPC Layers",
		"FRAGMENT-VIP", "CHANNEL-FRAGMENT-VIP", "SELECT-CHANNEL-FRAGMENT-VIP",
		"Section 4.3: Dynamically Removing Layers",
		"SELECT-CHANNEL-VIPsize (predicted)",
		"1.93", // a paper number rendered beside ours
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}
}

// TestMeasureProducesSaneNumbers checks Measure's bookkeeping on a
// five-iteration run, where one pre-empted loop outweighs any real
// difference between two timings: so nothing here orders two timings or
// bands one. That a 16 KB call costs more than a 1 KB call is asserted on
// what it puts on the wire — twelve fragments and a reply against one
// frame and a reply — which is the same on every run.
func TestMeasureProducesSaneNumbers(t *testing.T) {
	r, err := Measure(MRPCVIP, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency <= 0 || r.Latency > time.Second {
		t.Fatalf("latency = %v", r.Latency)
	}
	if r.FramesPerNullRPC != 2 {
		t.Fatalf("frames per null RPC = %f, want 2", r.FramesPerNullRPC)
	}
	if len(r.SweepLatency) != len(tiny.SweepSizes) {
		t.Fatalf("sweep measured %d sizes, want %d", len(r.SweepLatency), len(tiny.SweepSizes))
	}
	for _, size := range tiny.SweepSizes {
		if r.SweepLatency[size] <= 0 {
			t.Fatalf("%d-byte latency = %v", size, r.SweepLatency[size])
		}
	}
	if r.IncrementalPerKB != slopePerKB(r.SweepLatency) {
		t.Fatalf("incremental = %v, not the fit of %v", r.IncrementalPerKB, r.SweepLatency)
	}
	if r.ThroughputCPU <= 0 || r.ThroughputWire <= 0 || r.ThroughputWire > r.ThroughputCPU {
		t.Fatalf("throughput: cpu %f, wire-bounded %f", r.ThroughputCPU, r.ThroughputWire)
	}

	tb, err := Build(MRPCVIP, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for _, c := range []struct {
		size   int
		frames int64
	}{{1024, 1 + 1}, {16 * 1024, 12 + 1}} {
		before := tb.Wire.Stats().FramesSent
		if err := tb.End.RoundTrip(msg.MakeData(c.size)); err != nil {
			t.Fatal(err)
		}
		if got := tb.Wire.Stats().FramesSent - before; got != c.frames {
			t.Errorf("%d-byte call: %d frames, want %d", c.size, got, c.frames)
		}
	}
}

func TestSlopeFit(t *testing.T) {
	// Perfectly linear data: latency = 100ns + 10ns/byte.
	points := map[int]time.Duration{}
	for _, n := range []int{1000, 2000, 4000, 8000} {
		points[n] = time.Duration(100 + 10*n)
	}
	got := slopePerKB(points)
	want := time.Duration(10 * 1024)
	if got != want {
		t.Fatalf("slope = %v, want %v", got, want)
	}
	if slopePerKB(map[int]time.Duration{100: 1}) != 0 {
		t.Fatal("single point should give zero slope")
	}
}

// TestBuildUnknownStack: a build that fails leaves nothing behind. An
// unknown name is refused from the table before a wire is minted; a
// ledger whose directory cannot be created closes the wire the hosts were
// attached to — over UDP, two sockets and their reader goroutines.
func TestBuildUnknownStack(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing")) // os.MkdirTemp fails
	for _, c := range []struct {
		stack Stack
		wires int
	}{
		{"NOPE", 0},
		{"NOPE+mem", 0},
		{LRPCVIP + "+wal-always", 1},
	} {
		baseline := runtime.NumGoroutine()
		minted := 0
		f := func() (wire.Wire, error) {
			minted++
			return udpwire.New(udpwire.Config{})
		}
		if _, err := BuildOn(c.stack, f, nil); err == nil {
			t.Errorf("%s: build succeeded", c.stack)
		}
		if minted != c.wires {
			t.Errorf("%s: minted %d wires, want %d", c.stack, minted, c.wires)
		}
		settle.Expect(t, baseline, time.Second)
	}
}

// TestBidirectionalConcurrentLoad drives calls in both directions over
// one shared layered stack from many goroutines at once — the
// cross-goroutine stress the shepherd model must survive (run under
// -race in CI).
func TestBidirectionalConcurrentLoad(t *testing.T) {
	tb, err := Build(LRPCVIP, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The testbed's endpoint calls client→server; add a reverse
	// endpoint by building a second testbed the other way around is
	// not possible on the same network, so stress the one direction
	// from many goroutines instead — SELECT's channel pool serializes
	// onto 8 channels.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := msg.MakeData(512 * (g + 1))
			for i := 0; i < 10; i++ {
				if err := tb.End.RoundTrip(payload); err != nil {
					errs <- err
					return
				}
				if got, err := tb.End.Echo(payload); err != nil {
					errs <- err
					return
				} else if !bytes.Equal(got, payload) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLayeredRPCOverLatencyNetwork exercises the asynchronous delivery
// path: with per-frame latency the receive side runs on timer
// goroutines rather than on the sender's shepherd, so replies genuinely
// cross goroutines.
func TestLayeredRPCOverLatencyNetwork(t *testing.T) {
	tb, err := Build(LRPCVIP, sim.Config{Latency: 200 * time.Microsecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tb.End.RoundTrip(msg.MakeData(3000)); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}
	got, err := tb.End.Echo(msg.MakeData(6000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6000 {
		t.Fatalf("echo returned %d bytes", len(got))
	}
}

// TestStacksUnderAsyncShepherds runs the monolithic and layered stacks
// with a dedicated goroutine per delivered frame — the x-kernel's
// shepherd-process model taken literally — to stress cross-goroutine
// locking (run under -race in CI).
func TestStacksUnderAsyncShepherds(t *testing.T) {
	for _, stack := range []Stack{MRPCVIP, LRPCVIP, SelChanVIPsize} {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{Async: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if err := tb.End.RoundTrip(msg.MakeData(700*g + i)); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
