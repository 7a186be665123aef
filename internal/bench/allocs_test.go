//go:build !race

package bench

import (
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/sim"
)

// The allocation budget of a round trip, per stack: ROADMAP item 2's
// "gate allocs/op exactly". The counts are deterministic and
// machine-independent, so the gate is equality — an allocation added to a
// per-message path fails it, and so does one removed, which means a
// budget only ever changes on purpose: update the constant in the same
// change and say where the allocation went.
//
// What the null budgets buy (L_RPC-VIP, 8): the caller's request message,
// CHANNEL's clone of it for retransmission, the frame's bytes at the
// driver (Msg.Bytes), the server's message around the received frame, the
// handler's reply message, the ledger blob of the framed reply, the
// reply frame's bytes, the client's message around it. Nothing else: no
// timer, no channel, no map entry, no boxed trace argument.
//
// The race detector instruments allocation, so the file is built
// without it; scripts/check.sh runs it as its own no-race stage.
var allocBudgets = []struct {
	stack   Stack
	payload int
	want    float64
}{
	{VIPOnly, 0, 6},
	{FragVIP, 0, 6},
	{ChanFragVIP, 0, 8},
	{LRPCVIP, 0, 8},
	{MRPCVIP, 0, 8},
	{LRPCVIP, 16 * 1024, 67},
	{MRPCVIP, 16 * 1024, 60},
}

func TestAllocBudgets(t *testing.T) {
	for _, b := range allocBudgets {
		tb, err := Build(b.stack, sim.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.stack, err)
		}
		var payload []byte
		if b.payload > 0 {
			payload = msg.MakeData(b.payload)
		}
		call := func() {
			if err := tb.End.RoundTrip(payload); err != nil {
				t.Fatalf("%s: %v", b.stack, err)
			}
		}
		for i := 0; i < 50; i++ { // sessions open, maps at size, timers created
			call()
		}
		if got := testing.AllocsPerRun(200, call); got != b.want {
			t.Errorf("%s, %d-byte request: %.0f allocations per round trip, budget is exactly %.0f", b.stack, b.payload, got, b.want)
		}
		tb.Close()
	}
}
