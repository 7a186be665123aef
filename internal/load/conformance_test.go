package load

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xkernel/internal/bench"
	"xkernel/internal/chaos"
	"xkernel/internal/event"
	"xkernel/internal/obs/flight"
	"xkernel/internal/settle"
	"xkernel/internal/sim"
	udpwire "xkernel/internal/wire/udp"
)

// conformanceStacks is the matrix: every RPC stack with a request/reply
// endpoint answers the same workload the same way, whatever its
// internal decomposition — which is the paper's interchangeability
// claim made executable.
var conformanceStacks = []bench.Stack{
	bench.NRPC,
	bench.MRPCEth,
	bench.MRPCIP,
	bench.MRPCVIP,
	bench.LRPCVIP,
	bench.ChanFragVIP,
	bench.SelChanVIPsize,
	bench.SunRPCVIP,
}

// chaosChecked is the subset whose reliability layer claims at-most-once
// semantics; the invariant-checked fault scenarios only make sense
// there (Sun RPC's REQUEST_REPLY is zero-or-more by design, so
// re-execution under retransmission is conformant for it, not a bug).
var chaosChecked = map[bench.Stack]bool{
	bench.NRPC:           true,
	bench.MRPCVIP:        true,
	bench.LRPCVIP:        true,
	bench.ChanFragVIP:    true,
	bench.SelChanVIPsize: true,
}

// boundarySizes cross every framing edge: empty, single byte, just
// under/at/over the fragmentation boundary (≈1477 bytes of payload per
// 1500-byte frame), and power-of-two bulk sizes up to the 16k cap.
var boundarySizes = []int{0, 1, 16, 255, 1024, 1476, 1477, 1478, 2048, 4096, 8192, 16384}

// fillPayload writes a deterministic per-call pattern so a reply
// spliced from the wrong call (or a fragment reassembled out of place)
// cannot pass the byte-for-byte check.
func fillPayload(b []byte, seq int) {
	for i := range b {
		b[i] = byte(i*31 + seq*17 + 7)
	}
}

func checkEcho(ep bench.Endpoint, size, seq int) error {
	payload := make([]byte, size)
	fillPayload(payload, seq)
	reply, err := ep.Echo(payload)
	if err != nil {
		return fmt.Errorf("echo %dB (seq %d): %w", size, seq, err)
	}
	if !bytes.Equal(reply, payload) {
		return fmt.Errorf("echo %dB (seq %d): reply differs (got %d bytes)", size, seq, len(reply))
	}
	return nil
}

// flightOnFailure arms a flight recorder on the testbed's wire and, if
// the test ends up failing, dumps the black box as JSON to
// $XK_FLIGHT_DIR (the OS temp dir when unset) for post-mortem.
func flightOnFailure(t *testing.T, tb *bench.Testbed) *flight.Recorder {
	t.Helper()
	fr := flight.New(0)
	fr.Enable()
	tb.SetFlight(fr)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("XK_FLIGHT_DIR")
		if dir == "" {
			dir = os.TempDir()
		}
		name := strings.ReplaceAll(t.Name(), "/", "_")
		path, err := fr.WriteTo(dir, name, "test failure: "+t.Name())
		if err != nil {
			t.Logf("flight dump failed: %v", err)
			return
		}
		t.Logf("flight recorder dumped to %s (%d events)", path, fr.Len())
	})
	return fr
}

// conformanceWires is the backend axis of the matrix: the simulated
// ethernet and the real UDP-socket wire. A stack that answers the
// workload identically on both has proven the transport seam — the
// bytes above the driver do not depend on what carries the frames.
var conformanceWires = []string{WireSim, WireUDP}

// TestConformanceMatrix drives the identical randomized workload
// through every stack over every wire backend: boundary-size echoes, a
// seeded random sequence, then concurrent clients — asserting
// byte-for-byte replies, exact at-most-once execution ledgers, and no
// goroutine leaks after the stack drains.
func TestConformanceMatrix(t *testing.T) {
	for _, backend := range conformanceWires {
		t.Run(backend, func(t *testing.T) {
			for _, stack := range conformanceStacks {
				stack := stack
				t.Run(string(stack), func(t *testing.T) {
					conformanceMatrixOne(t, stack, backend)
				})
			}
		})
	}
}

// sequentialWorkload is the matrix's single-client part, and returns how
// many calls it made, every one an echo checked byte for byte.
func sequentialWorkload(t *testing.T, tb *bench.Testbed) int {
	t.Helper()
	calls := 0

	// Phase 1: every framing boundary, sequentially.
	for _, size := range boundarySizes {
		if size > tb.MaxMsg {
			continue
		}
		if err := checkEcho(tb.End, size, calls); err != nil {
			t.Fatal(err)
		}
		calls++
	}

	// Phase 2: the seeded random sequence — identical for every
	// stack, sizes weighted around the fragmentation boundary.
	rng := rand.New(rand.NewSource(0xc04f))
	for i := 0; i < 60; i++ {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = rng.Intn(256)
		case 1:
			size = 1400 + rng.Intn(200)
		default:
			size = rng.Intn(tb.MaxMsg + 1)
		}
		if err := checkEcho(tb.End, size, calls); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	return calls
}

// TestConformanceCaptureOnOff runs the matrix's seeded single-client
// workload twice over the simulator, once with packet capture on and once
// off. Capture moves every frame from the simulator's message path (the
// receiver is handed the sender's message) to its byte path (flattened,
// recorded, re-wrapped); a stack must not be able to tell. Every echo is
// byte-checked in both runs, and the server's execution count and the
// segment's frame and byte counters must come out identical.
func TestConformanceCaptureOnOff(t *testing.T) {
	type outcome struct {
		calls int
		execs int64
		wire  sim.Stats
	}
	for _, stack := range conformanceStacks {
		t.Run(string(stack), func(t *testing.T) {
			run := func(capture bool) outcome {
				// A clock that never advances: on a lossless synchronous
				// segment no call needs a timer, and N.RPC's probe
				// schedule would otherwise depend on how long the run took.
				tb, err := bench.BuildOn(stack, sim.Factory(sim.Config{}), event.NewFake())
				if err != nil {
					t.Fatal(err)
				}
				defer tb.Close()
				var captured int64
				if capture {
					tb.Network.SetCapture(func(sim.FrameRecord) { captured++ })
				}
				tb.Network.ResetStats() // setup traffic (ARP) happens before capture can be on
				o := outcome{calls: sequentialWorkload(t, tb), wire: tb.Network.Stats()}
				if tb.ServerExecs != nil {
					o.execs = tb.ServerExecs()
				}
				if capture && captured != o.wire.FramesSent {
					t.Errorf("captured %d of %d frames", captured, o.wire.FramesSent)
				}
				return o
			}
			if on, off := run(true), run(false); on != off {
				t.Errorf("capture changed the run:\non  %+v\noff %+v", on, off)
			}
		})
	}
}

func conformanceMatrixOne(t *testing.T, stack bench.Stack, backend string) {
	baseline := runtime.NumGoroutine()
	f, err := WireFactory(backend, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bench.BuildOn(stack, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	flightOnFailure(t, tb)
	calls := sequentialWorkload(t, tb)

	// Phase 3: concurrent clients through the endpoint factory.
	const clients = 8
	const perClient = 20
	if tb.NewEndpoint == nil {
		t.Fatalf("stack %s has no concurrent endpoint factory", stack)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		ep, err := tb.NewEndpoint(c)
		if err != nil {
			t.Fatalf("endpoint %d: %v", c, err)
		}
		wg.Add(1)
		go func(c int, ep bench.Endpoint) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(0xbeef + c)))
			for i := 0; i < perClient; i++ {
				if err := checkEcho(ep, crng.Intn(4096), c*1000+i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c, ep)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	calls += clients * perClient

	// At-most-once ledger: on a loss-free wire every call ran
	// exactly once — no duplicate executions hidden behind the
	// byte-identical replies.
	if tb.AtMostOnce && tb.ServerExecs != nil {
		if execs := tb.ServerExecs(); execs != int64(calls) {
			t.Errorf("server executed %d requests for %d calls", execs, calls)
		}
	}

	// At-most-once holds on the real wire too: a loopback drop would
	// surface as a retransmit answered from the reply cache, never a
	// second execution, so the ledger check above stays exact.

	// Close the wire before settling: a real backend owns listener
	// goroutines that exit with their sockets. Real-clock testbeds may
	// also have short timers (fragment send-hold) still due, so settle
	// with wall-clock patience.
	tb.Close()
	settle.Expect(t, baseline, 5*time.Second)
}

// TestConformanceExecLedger is the execution-ledger matrix: the
// crash-replay scenario under an echo workload, swept across the
// at-most-once engine families × ledger configurations. The workload's
// byte-compare is the acceptance check that a reply replayed from the
// ledger is identical to what the dead incarnation computed; the
// engine's invariants check that nothing executed twice either way.
func TestConformanceExecLedger(t *testing.T) {
	suffixes := []string{"+wal-always", "+wal-interval", "+wal-never", "+mem"}
	bases := []bench.Stack{bench.LRPCVIP, bench.MRPCVIP, bench.NRPC, bench.SelChanVIPsize}
	if testing.Short() {
		suffixes = []string{"+wal-always"}
		bases = bases[:2]
	}
	for _, base := range bases {
		for _, suffix := range suffixes {
			stack := base + bench.Stack(suffix)
			t.Run(string(stack), func(t *testing.T) {
				res, err := chaos.Execute(chaos.Config{
					Stack:        stack,
					Net:          sim.Config{Seed: 31},
					Workload:     chaos.Workload{Calls: 9, Payload: 700, Echo: true},
					Scenario:     chaos.CrashReplay(3),
					ConvergeTail: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				if res.Hung {
					t.Fatal("hung")
				}
				// A ledger whose record went durable before the crash
				// (fsync always; interval's 10ms timer fires before the
				// 25ms crash) completes the wounded call byte-for-byte;
				// a volatile one fails it typed. Exactly-once either way.
				durable := strings.HasSuffix(string(stack), "wal-always") ||
					strings.HasSuffix(string(stack), "wal-interval")
				if durable {
					if res.Calls[3].Err != nil {
						t.Errorf("wounded call failed instead of replaying: %v", res.Calls[3].Err)
					}
					if res.LedgerReplays != 1 {
						t.Errorf("LedgerReplays = %d, want 1", res.LedgerReplays)
					}
					if res.ServerExecs != int64(res.Completed) {
						t.Errorf("server executed %d for %d completed calls", res.ServerExecs, res.Completed)
					}
				} else {
					if res.Calls[3].Err == nil {
						t.Error("wounded call completed although its record was volatile")
					}
					if res.LedgerReplays != 0 {
						t.Errorf("LedgerReplays = %d on a volatile record", res.LedgerReplays)
					}
				}
			})
		}
	}
}

// TestConformanceUnderFaults sweeps the invariant-checked chaos
// scenarios across the at-most-once stacks: mid-stream frame bursts,
// link flaps, crash/reboot, and a partition hiding a reboot must leave
// every invariant intact on each.
func TestConformanceUnderFaults(t *testing.T) {
	const calls = 9
	scenarios := chaos.Library(calls)
	if testing.Short() {
		scenarios = scenarios[:2]
	}
	for _, stack := range conformanceStacks {
		if !chaosChecked[stack] {
			continue
		}
		for _, sc := range scenarios {
			t.Run(string(stack)+"/"+sc.Name, func(t *testing.T) {
				res, err := chaos.Execute(chaos.Config{
					Stack:        stack,
					Net:          sim.Config{Seed: 7},
					Workload:     chaos.Workload{Calls: calls, Payload: 1500},
					Scenario:     sc,
					ConvergeTail: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				if res.Hung {
					t.Fatal("hung")
				}
			})
		}
	}

	// The same fault families over the real wire. Off-simulator a typed
	// failure costs real retransmission time (~400ms), so this arm stays
	// narrow — the loss and flap families on the full layered stack; the
	// per-backend workload matrix above is where every stack crosses the
	// seam.
	if testing.Short() {
		return
	}
	for _, sc := range chaos.Library(calls)[:2] {
		t.Run("udp/"+string(bench.LRPCVIP)+"/"+sc.Name, func(t *testing.T) {
			res, err := chaos.Execute(chaos.Config{
				Stack:        bench.LRPCVIP,
				WireFactory:  udpwire.Factory(udpwire.Config{}),
				Workload:     chaos.Workload{Calls: calls, Payload: 1500},
				Scenario:     sc,
				ConvergeTail: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if res.Hung {
				t.Fatal("hung")
			}
		})
	}
}
