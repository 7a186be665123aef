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
// What the 16 KB budgets buy (twelve fragments):
//
//	L_RPC-VIP 45: the request 1, CHANNEL's clone of it 1, the fragments
//	  cut from the held request 12, SELECT's and CHANNEL's headers copied
//	  into fragment 0 1, the frames' bytes at the driver 12, the server's
//	  messages around the received frames 12, the reassembled chain moved
//	  out of line 2 (spill record + exact-size slice), and the null
//	  budget's reply path 4 (message, ledger blob, frame bytes, client
//	  message).
//	M_RPC-VIP 43: the same without the clone (M.RPC cuts from the
//	  caller's message) and without the header copy (nothing is pushed
//	  above it).
//	FRAGMENT-VIP 42: request 1, fragments 12, frame bytes 12, server
//	  messages 12, chain 2, null reply 3 (message, frame bytes, client
//	  message).
//
// No Split slice, no Clone per frame, no hold record, no collection
// record and no gap timer: those belong to the session, not the message.
//
// The 4 KB echoes (three fragments each way) hold the reply direction to
// the same rule. L_RPC-VIP 28 is 14 out (request, clone, 3 fragments,
// header copy, 3 frame bytes, 3 server messages, chain 2) and 14 back
// (ledger blob, 3 fragments, header copy, 3 frame bytes, 3 client
// messages, chain 2, the caller's Bytes); M_RPC-VIP 26 is 12 out (no
// clone, no header copy) and 14 back (frameReply's Split: slice + 3
// fragments, then as above).
//
// The race detector instruments allocation, so the file is built
// without it; scripts/check.sh runs it as its own no-race stage.
var allocBudgets = []struct {
	stack   Stack
	payload int
	echo    bool // reply carries the payload back
	want    float64
}{
	{VIPOnly, 0, false, 6},
	{FragVIP, 0, false, 6},
	{ChanFragVIP, 0, false, 8},
	{LRPCVIP, 0, false, 8},
	{MRPCVIP, 0, false, 8},
	{FragVIP, 16 * 1024, false, 42},
	{LRPCVIP, 16 * 1024, false, 45},
	{MRPCVIP, 16 * 1024, false, 43},
	{LRPCVIP, 4 * 1024, true, 28},
	{MRPCVIP, 4 * 1024, true, 26},
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
			var err error
			if b.echo {
				_, err = tb.End.Echo(payload)
			} else {
				err = tb.End.RoundTrip(payload)
			}
			if err != nil {
				t.Fatalf("%s: %v", b.stack, err)
			}
		}
		for i := 0; i < 50; i++ { // sessions open, maps at size, timers created
			call()
		}
		if got := testing.AllocsPerRun(200, call); got != b.want {
			t.Errorf("%s, %d-byte request (echo=%v): %.0f allocations per round trip, budget is exactly %.0f", b.stack, b.payload, b.echo, got, b.want)
		}
		tb.Close()
	}
}
