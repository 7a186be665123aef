package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/obs"
	"xkernel/internal/sim"
)

// echoStacks can run the Echo workload (the push and UDP endpoints
// cannot — they have no request/reply pairing above the null reply).
var echoStacks = map[Stack]bool{
	NRPC: true, MRPCEth: true, MRPCIP: true, MRPCVIP: true,
	LRPCVIP: true, SelChanFragVIP: true, ChanFragVIP: true, SelChanVIPsize: true,
}

// equivStacks lists every distinct configuration: the table minus
// L_RPC-VIP, the second name of SELECT-CHANNEL-FRAGMENT-VIP's graph.
var equivStacks = func() (distinct []Stack) {
	for _, s := range Stacks() {
		if s != LRPCVIP {
			distinct = append(distinct, s)
		}
	}
	return distinct
}()

// driveWorkload runs the fixed exchange every wire-equivalence test
// compares: five nulls, one 1000-byte call, and — where the stack echoes
// — echoes of 64 and 3000 bytes. between, if set, runs after each
// operation.
func driveWorkload(t *testing.T, tb *Testbed, between func()) (echoes [][]byte) {
	t.Helper()
	step := func() {
		if between != nil {
			between()
		}
	}
	stack := tb.Stack
	for i := 0; i < 5; i++ {
		if err := tb.End.RoundTrip(nil); err != nil {
			t.Fatalf("%s null round trip %d: %v", stack, i, err)
		}
		step()
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := tb.End.RoundTrip(payload); err != nil {
		t.Fatalf("%s 1000-byte round trip: %v", stack, err)
	}
	step()
	if echoStacks[stack] {
		for _, n := range []int{64, 3000} {
			req := make([]byte, n)
			for i := range req {
				req[i] = byte(i * 7)
			}
			got, err := tb.End.Echo(req)
			if err != nil {
				t.Fatalf("%s echo(%d): %v", stack, n, err)
			}
			echoes = append(echoes, got)
			step()
		}
	}
	return echoes
}

// runWorkload drives the fixed exchange and returns the captured wire
// frames and any echo replies. The testbed runs on a fake clock that
// never advances: N.RPC probes a peer it has not heard from for 1 ms, so
// on the wall clock a slow run earns probe frames a fast one does not
// and two runs are not comparable frame by frame.
func runWorkload(t *testing.T, stack Stack, instrumented bool) (frames []sim.FrameRecord, echoes [][]byte, m *obs.Meter) {
	t.Helper()
	var tb *Testbed
	var err error
	if instrumented {
		tb, m, err = BuildInstrumented(stack, sim.Config{}, event.NewFake())
	} else {
		tb, err = Build(stack, sim.Config{}, event.NewFake())
	}
	if err != nil {
		t.Fatal(err)
	}
	tb.Network.SetCapture(func(r sim.FrameRecord) { frames = append(frames, r) })
	echoes = driveWorkload(t, tb, nil)
	if m != nil && tb.Collect != nil {
		tb.Collect()
	}
	return frames, echoes, m
}

// TestInterpositionTransparency is the satellite equivalence check: for
// every configuration, composing an obs.Wrap at every protocol boundary
// must leave the wire byte-for-byte identical and the RPC results
// unchanged versus the uninstrumented graph. The simulator is
// deterministic (fixed seed, zero fault rates) and the clock is fake, so
// the two runs are directly comparable frame by frame.
func TestInterpositionTransparency(t *testing.T) {
	for _, stack := range equivStacks {
		t.Run(string(stack), func(t *testing.T) {
			plainFrames, plainEchoes, _ := runWorkload(t, stack, false)
			instFrames, instEchoes, m := runWorkload(t, stack, true)

			if len(plainFrames) != len(instFrames) {
				t.Fatalf("frame count: plain %d, instrumented %d", len(plainFrames), len(instFrames))
			}
			for i := range plainFrames {
				p, q := plainFrames[i], instFrames[i]
				if !bytes.Equal(p.Frame, q.Frame) {
					t.Fatalf("frame %d differs on the wire:\n plain %x\n inst  %x", i, p.Frame, q.Frame)
				}
				if p.Src != q.Src || p.Dst != q.Dst || p.Disposition != q.Disposition {
					t.Fatalf("frame %d metadata differs: %+v vs %+v", i, p, q)
				}
			}
			if len(plainEchoes) != len(instEchoes) {
				t.Fatalf("echo count: plain %d, instrumented %d", len(plainEchoes), len(instEchoes))
			}
			for i := range plainEchoes {
				if !bytes.Equal(plainEchoes[i], instEchoes[i]) {
					t.Fatalf("echo %d reply differs", i)
				}
			}
			// The lossless wire admits no drops anywhere in the graph.
			for _, ls := range m.Snapshot() {
				if ls.Drops != 0 {
					t.Errorf("layer %s: %d drops on a lossless wire", ls.Layer, ls.Drops)
				}
				if ls.Retransmits != 0 {
					t.Errorf("layer %s: %d retransmits on a lossless wire", ls.Layer, ls.Retransmits)
				}
			}
		})
	}
}

// wireGolden is a digest of the frames the fixed workload puts on the
// wire (bytes, source, destination, disposition, in order), recorded per
// stack at the last commit that assembled each stack by hand. It is the
// only check that a stack composed from its spec sends what the hand
// builder sent; a protocol change that alters a header re-records it on
// purpose.
var wireGolden = map[Stack]string{
	NRPC:           "80ad02f3eb53e1848ea6e887",
	MRPCEth:        "f30cd8d6226f7c77733da9a6",
	MRPCIP:         "1130ea5eeb30834b6cf6432b",
	MRPCVIP:        "f30cd8d6226f7c77733da9a6", // local peer: VIP picks ETH, so M_RPC-ETH's wire
	SelChanFragVIP: "48721a0b9dd6ac4d55020ca7", // SELECT's pool keeps a lone caller on channel 0
	ChanFragVIP:    "5358b0c026dac1eabbdf02b2",
	FragVIP:        "e26820fc529385e6e0b7a1e9",
	VIPOnly:        "1725274a824887306545e6dd",
	SelChanVIPsize: "f9e8ab72dfe5df6e4aeef82d", // likewise
	UDPIP:          "0251cebebfa15f8b767e98da",
	SunRPCVIP:      "5813119b77b07c0b12b80651", // likewise SUN_SELECT's, on REQUEST_REPLY's channel 0
}

func wireDigest(frames []sim.FrameRecord) string {
	h := sha256.New()
	for _, r := range frames {
		fmt.Fprintf(h, "%s %s %s %x\n", r.Src, r.Dst, r.Disposition, r.Frame)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func TestWireGolden(t *testing.T) {
	for _, stack := range equivStacks {
		t.Run(string(stack), func(t *testing.T) {
			frames, _, _ := runWorkload(t, stack, false)
			if got := wireDigest(frames); got != wireGolden[stack] {
				t.Errorf("%d frames digest to %q, want %q", len(frames), got, wireGolden[stack])
			}
		})
	}
}

// TestInstrumentedLayerCounts is the consistency acceptance check at
// bench level, over every stack in the table: N null RPCs through the
// instrumented graph drop nothing at any boundary, and a boundary the
// calls cross counts exactly N pushes and N pops (request one way,
// reply the other) while one they bypass — IP under a VIP that picked
// ETH, the RPC protocol's own top, entered by Call — counts neither.
// For the Figure 3(a) stack the eight boundaries on the path are named.
// The clock is fake so N.RPC's 1 ms crash probe adds no frame of its own.
func TestInstrumentedLayerCounts(t *testing.T) {
	const N = 25
	onPath := map[Stack][]string{SelChanFragVIP: {
		"client/channel", "client/fragment", "client/vip", "client/eth",
		"server/eth", "server/vip", "server/fragment", "server/channel",
	}}
	for _, stack := range Stacks() {
		t.Run(string(stack), func(t *testing.T) {
			tb, m, err := BuildInstrumented(stack, sim.Config{}, event.NewFake())
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			// Setup traffic (opens, ARP) settles before counting.
			if err := tb.End.RoundTrip(nil); err != nil {
				t.Fatal(err)
			}
			m.Reset()
			for i := 0; i < N; i++ {
				if err := tb.End.RoundTrip(nil); err != nil {
					t.Fatal(err)
				}
			}
			var crossed int
			for _, ls := range m.Snapshot() {
				if ls.Drops != 0 {
					t.Errorf("%s: drops = %d, want 0", ls.Layer, ls.Drops)
				}
				if ls.Pushes != ls.Pops || (ls.Pushes != 0 && ls.Pushes != N) {
					t.Errorf("%s: pushes = %d, pops = %d, want both %d or both 0", ls.Layer, ls.Pushes, ls.Pops, N)
				}
				if ls.Pushes == N {
					crossed++
				}
			}
			if crossed < 2 {
				t.Errorf("%d boundaries counted the calls, want at least one per host", crossed)
			}
			for _, name := range onPath[stack] {
				if got := m.Layer(name).Pushes.Load(); got != N {
					t.Errorf("%s: pushes = %d, want %d", name, got, N)
				}
			}
		})
	}
}
