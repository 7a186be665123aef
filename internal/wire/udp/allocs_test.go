//go:build !race

package udp

import (
	"testing"

	"xkernel/internal/msg"
)

// The race detector instruments allocation, so this file is built
// without it; scripts/check.sh runs it in its no-race allocation stage.

// TestSendMsgAllocations holds the message pair to what the byte pair
// cost the driver before it: Msg.Bytes and Send. SendMsg flattens into
// scratch on its own stack, so beyond building the message the send
// allocates nothing at all.
func TestSendMsgAllocations(t *testing.T) {
	w := newTestWire(t)
	l, err := w.Attach(addrA)
	if err != nil {
		t.Fatal(err)
	}
	la := l.(*Link)
	// No receiver at B: the listener drops what arrives before copying
	// it, so the counts below are the sender's alone.
	if _, err := w.Attach(addrB); err != nil {
		t.Fatal(err)
	}
	payload := msg.MakeData(1400)
	hdr := ethFrame(addrB, addrA, 0x3000, nil)
	build := func() *msg.Msg {
		m := msg.New(payload)
		m.MustPush(hdr)
		return m
	}
	before := testing.AllocsPerRun(200, func() {
		if err := la.Send(addrB, build().Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	after := testing.AllocsPerRun(200, func() {
		if err := la.SendMsg(addrB, build()); err != nil {
			t.Fatal(err)
		}
	})
	if after != 1 || after >= before {
		t.Errorf("SendMsg: %.0f allocations per frame (the message itself is 1); Bytes+Send: %.0f", after, before)
	}
}
