package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/sim"
)

// allStacks lists every configuration the experiments measure.
var allStacks = Stacks()

// TestDesignStackTable keeps DESIGN.md's stack → spec table a reading of
// stackTable rather than a copy that can drift: one row per entry,
// spelled from the code's spec and top instance.
func TestDesignStackTable(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range stackTable {
		spec := "(the base graph alone)"
		if lines := strings.Split(strings.TrimSpace(def.spec), "\n"); def.spec != "" {
			spec = "`" + strings.Join(lines, "` / `") + "`"
		}
		row := fmt.Sprintf("| `%s` | %s | `%s` |\n", def.stack, spec, def.top)
		if !bytes.Contains(design, []byte(row)) {
			t.Errorf("DESIGN.md lacks the row %q", row)
		}
	}
}

// boundAbove marks the stacks whose endpoint opens sessions through the
// uniform interface and so binds above a boundary on its top instance;
// the typed endpoints (SELECT, the Sprite engines, SUN_SELECT) drive
// theirs directly.
var boundAbove = map[Stack]bool{VIPOnly: true, FragVIP: true, ChanFragVIP: true, UDPIP: true}

// TestEveryStackIsItsSpec holds the table to its word: each stack's two
// kernels hold exactly the spec's instances and edges, a plain build
// interposes nothing, and an instrumented one has a meter layer on both
// hosts for every edge of the spec (and above the top instance where the
// endpoint binds through it) — one placement rule for every stack.
func TestEveryStackIsItsSpec(t *testing.T) {
	for _, def := range stackTable {
		t.Run(string(def.stack), func(t *testing.T) {
			var lines [][]string
			for _, line := range strings.Split(def.spec, "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					lines = append(lines, f)
				}
			}
			plain, err := Build(def.stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, m, err := BuildInstrumented(def.stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			layers := make(map[string]bool)
			for _, l := range m.Layers() {
				layers[l] = true
			}
			for i, host := range []string{"client", "server"} {
				k := plain.kernels[i]
				if got, want := len(k.Instances()), 5+len(lines); got != want {
					t.Errorf("%s: %d instances %v, want the base graph's 5 plus %d", host, got, k.Instances(), len(lines))
				}
				for _, f := range lines {
					edge := fmt.Sprintf("  %-12s -> %s\n", f[0], strings.Join(f[1:], ", "))
					if !strings.Contains(k.Graph(), edge) {
						t.Errorf("%s graph lacks %q:\n%s", host, edge, k.Graph())
					}
				}
				if made := k.Meter().Layers(); len(made) != 0 {
					t.Errorf("%s: plain build interposed boundaries %v", host, made)
				}
				var boundaries []string
				for _, f := range lines {
					boundaries = append(boundaries, f[1:]...)
				}
				if boundAbove[def.stack] {
					boundaries = append(boundaries, def.top)
				}
				for _, b := range boundaries {
					if !layers[host+"/"+b] {
						t.Errorf("instrumented build has no %s/%s layer (have %v)", host, b, m.Layers())
					}
				}
			}
		})
	}
}

func TestNullRoundTripEveryStack(t *testing.T) {
	for _, stack := range allStacks {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := tb.End.RoundTrip(nil); err != nil {
					t.Fatalf("round trip %d: %v", i, err)
				}
			}
		})
	}
}

func TestLargeRoundTripEveryStack(t *testing.T) {
	// The throughput workload: large request, null reply (1k–16k). The
	// push endpoints (VIP alone) are limited to one packet by design.
	for _, stack := range allStacks {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sizes := []int{1024, 4096, 16384}
			if stack == VIPOnly {
				sizes = []int{1024}
			}
			for _, n := range sizes {
				if n > tb.MaxMsg {
					continue
				}
				if err := tb.End.RoundTrip(msg.MakeData(n)); err != nil {
					t.Fatalf("size %d: %v", n, err)
				}
			}
		})
	}
}

func TestEchoSemanticEquivalence(t *testing.T) {
	// M.RPC and L.RPC are "two different protocols that provide the
	// same level of service" (§3.2): the same workload must produce
	// the same answers through both, and through the §4.3 composition.
	payload := msg.MakeData(6000)
	for _, stack := range []Stack{NRPC, MRPCEth, MRPCIP, MRPCVIP, LRPCVIP, ChanFragVIP, SelChanVIPsize} {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tb.End.Echo(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("echo mismatch: got %d bytes", len(got))
			}
		})
	}
}

func TestVIPsizeUsesDirectPathForSmallMessages(t *testing.T) {
	// §4.3: small messages must bypass FRAGMENT entirely. A null RPC
	// through SELECT-CHANNEL-VIPsize must put exactly two frames on
	// the wire (request + reply), same as the monolithic stack — no
	// FRAGMENT headers, no extra packets.
	tb, err := Build(SelChanVIPsize, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	tb.Network.ResetStats()
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	if got := tb.Network.Stats().FramesSent; got != 2 {
		t.Fatalf("null RPC sent %d frames, want 2", got)
	}
}

func TestVIPsizeUsesBulkPathForLargeMessages(t *testing.T) {
	tb, err := Build(SelChanVIPsize, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	tb.Network.ResetStats()
	if err := tb.End.RoundTrip(msg.MakeData(8192)); err != nil {
		t.Fatal(err)
	}
	// 8k through 1477-byte fragments is 6 frames out plus 1 reply.
	if got := tb.Network.Stats().FramesSent; got < 7 {
		t.Fatalf("8k RPC sent %d frames, want >= 7", got)
	}
}

func TestMRPCVIPLocalUsesEthernetFrames(t *testing.T) {
	// In the local case VIP must put M.RPC traffic directly on the
	// ethernet: exactly 2 frames per null RPC, and no IP datagrams.
	tb, err := Build(MRPCVIP, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	tb.Network.ResetStats()
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	if got := tb.Network.Stats().FramesSent; got != 2 {
		t.Fatalf("null RPC sent %d frames, want 2", got)
	}
	if sent := tb.Client.IP.Stats().Sent; sent != 0 {
		t.Fatalf("client pushed %d datagrams through IP; VIP should have bypassed it", sent)
	}
}

func TestMRPCIPPaysIPOnEveryPacket(t *testing.T) {
	tb, err := Build(MRPCIP, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	if sent := tb.Client.IP.Stats().Sent; sent == 0 {
		t.Fatal("M_RPC-IP should route through IP")
	}
}
