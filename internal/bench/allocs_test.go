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
// A frame crosses the simulator as the message it was pushed as, so the
// driver seam costs nothing: no Msg.Bytes going down, no msg.New coming
// up. What is left is what the application and the protocols make.
//
// What the null budgets buy (L_RPC-VIP and M_RPC-VIP, 2): the caller's
// request message and the handler's reply message. The server's ledger
// holds the framed reply by value, in storage it reuses from call to
// call (ledger.Mem, msg.HoldInto), and the client's retransmission hold is
// a value in the channel: neither is an object per call. Nothing else: no
// timer, no channel, no map entry, no boxed trace argument. VIP and
// FRAGMENT-VIP, which keep no ledger, are the same two messages.
//
// What the 16 KB budgets buy (twelve fragments):
//
//	L_RPC-VIP 7: the request 1, the fragments cut from the held request
//	  3 (three slabs of four Msgs, msg.Cutter), the reassembled chain
//	  moved out of line 2 (spill record + exact-size slice) and the
//	  reply 1. SELECT's and CHANNEL's headers ride in
//	  fragment 0's own leader (msg.Fragment pushes them there), not in a
//	  block copied for them.
//	M_RPC-VIP 7: the same; nothing is pushed above it, so it never had a
//	  header copy to lose.
//	FRAGMENT-VIP 7: request 1, fragment slabs 3, chain 2, reply 1.
//
// A slab of four is one 1280-byte object where four fragments were four
// 320-byte ones, so the bytes per call did not move when the count fell
// from 17 to 8 (msg's TestCutterIsByteNeutral holds the slab rule). No
// Split slice, no Clone per frame, no hold record, no collection record
// and no gap timer: those belong to the session, not the message.
//
// The 4 KB echoes (three fragments each way, a slab of two and one of
// one) hold the reply direction to the same rule. L_RPC-VIP 10 is 5 out
// (request, 2 slabs, chain 2) and 5 back (2 slabs, chain 2, the caller's
// Bytes) — the upper headers in fragment 0's leader both ways. The echoed
// reply is the reassembled request, a spilled chain, which the ledger
// copies into the chain slice it held the previous reply in. M_RPC-VIP 10
// is the same 5 out and 5 back: frameReply cuts the reply into an array
// on the server's stack, not a Split slice.
//
// The remaining null rows are the configurations of Table I, §4.3 and
// the UDP round trip, so a whole layer's worth of cost grown into any of
// them is an allocation count that moved, not a timing band. M_RPC-ETH,
// M_RPC-IP and SELECT-CHANNEL-VIPsize are the same 2 as over VIP, and so
// is UDP-IP-ETH, which keeps no ledger. SUNRPC-FRAGMENT-VIP's REQUEST_REPLY runs the
// at-most-once core's call slot, as CHANNEL does, so it spends nothing per
// call of its own (its own loop spent 8: a reply channel, a clone of the
// request, and a timer built for every attempt with its channel and
// closure). N_RPC 14 is M.RPC's 2 plus the Sprite shim's
// emulated buffer mismanagement: each of the four shim crossings (request
// and reply, down and up) flattens the message, copies it once and wraps
// the copy — 3 apiece, 12 in all. N.RPC's 1 ms crash probe reads the
// wall clock, so a pre-empted call can earn one inside the measured loop,
// but a probe is one more call's worth of allocations in a 200-call
// average that AllocsPerRun truncates to an integer, so the row is exact.
//
// The race detector instruments allocation, so the file is built
// without it; scripts/check.sh runs it as its own no-race stage.
var allocBudgets = []struct {
	stack   Stack
	payload int
	echo    bool // reply carries the payload back
	want    float64
}{
	{VIPOnly, 0, false, 2},
	{FragVIP, 0, false, 2},
	{ChanFragVIP, 0, false, 2},
	{LRPCVIP, 0, false, 2},
	{MRPCVIP, 0, false, 2},
	{FragVIP, 16 * 1024, false, 7},
	{LRPCVIP, 16 * 1024, false, 7},
	{MRPCVIP, 16 * 1024, false, 7},
	{LRPCVIP, 4 * 1024, true, 10},
	{MRPCVIP, 4 * 1024, true, 10},
	{NRPC, 0, false, 14},
	{MRPCEth, 0, false, 2},
	{MRPCIP, 0, false, 2},
	{SelChanVIPsize, 0, false, 2},
	{UDPIP, 0, false, 2},
	// SUNSELECT's call header and its XDR buffer, the handler's reply,
	// SUNSELECT's reply header and its XDR buffer: 5.
	{SunRPCVIP, 0, false, 5},
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
