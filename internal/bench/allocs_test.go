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
// What the null budgets buy (L_RPC-VIP and M_RPC-VIP, 3): the caller's
// request message, the handler's reply message, and the ledger blob of
// the framed reply — the one copy at-most-once needs, kept apart from
// anything a later call could overwrite. The retransmission hold is a
// value in the channel, not an object. Nothing else: no timer, no
// channel, no map entry, no boxed trace argument. VIP and FRAGMENT-VIP,
// which keep no ledger, are the two messages.
//
// What the 16 KB budgets buy (twelve fragments):
//
//	L_RPC-VIP 8: the request 1, the fragments cut from the held request
//	  3 (three slabs of four Msgs, msg.Cutter), the reassembled chain
//	  moved out of line 2 (spill record + exact-size slice), the reply 1
//	  and its ledger blob 1. SELECT's and CHANNEL's headers ride in
//	  fragment 0's own leader (msg.Fragment pushes them there), not in a
//	  block copied for them.
//	M_RPC-VIP 8: the same; nothing is pushed above it, so it never had a
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
// one) hold the reply direction to the same rule. L_RPC-VIP 11 is 5 out
// (request, 2 slabs, chain 2) and 6 back (ledger blob, 2 slabs, chain 2,
// the caller's Bytes) — the upper headers in fragment 0's leader both
// ways; M_RPC-VIP 11 is the same 5 out and 6 back: frameReply cuts the
// reply into an array on the server's stack, not a Split slice.
//
// The remaining null rows are the configurations of Table I, §4.3 and
// the UDP round trip, so a whole layer's worth of cost grown into any of
// them is an allocation count that moved, not a timing band. M_RPC-ETH,
// M_RPC-IP and SELECT-CHANNEL-VIPsize are the same 3 as over VIP; UDP-IP-ETH
// keeps no ledger, so 2. SUNRPC-FRAGMENT-VIP's REQUEST_REPLY runs the
// at-most-once core's call slot, as CHANNEL does, so it spends nothing per
// call of its own (its own loop spent 8: a reply channel, a clone of the
// request, and a timer built for every attempt with its channel and
// closure). N_RPC 15 is M.RPC's 3 plus the Sprite shim's
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
	{ChanFragVIP, 0, false, 3},
	{LRPCVIP, 0, false, 3},
	{MRPCVIP, 0, false, 3},
	{FragVIP, 16 * 1024, false, 7},
	{LRPCVIP, 16 * 1024, false, 8},
	{MRPCVIP, 16 * 1024, false, 8},
	{LRPCVIP, 4 * 1024, true, 11},
	{MRPCVIP, 4 * 1024, true, 11},
	{NRPC, 0, false, 15},
	{MRPCEth, 0, false, 3},
	{MRPCIP, 0, false, 3},
	{SelChanVIPsize, 0, false, 3},
	{UDPIP, 0, false, 2},
	// SUNSELECT's call header and its XDR buffer, the handler's reply,
	// SUNSELECT's reply header and its XDR buffer: 5, one fewer than the
	// same SUNSELECT over CHANNEL (6, its ledger blob).
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
