//go:build !race

package fragment

import (
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// The race detector instruments allocation, so this file is built without
// it; scripts/check.sh runs it in its allocation budgets stage.

// discardTap stands in for VIP and drops every frame, so what a resend
// allocates is FRAGMENT's own.
type discardTap struct{ xk.BaseProtocol }

func (p *discardTap) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *discardTap) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &discardSession{}
	s.InitSession(p, hlp)
	return s, nil
}

type discardSession struct{ xk.BaseSession }

func (s *discardSession) Push(*msg.Msg) error { return nil }

// Honouring a resend request for k fragments cuts them through one
// msg.Cutter: a slab of four per four fragments, then one of two, then one
// of one, and nothing else — k = 4 is one allocation, k = 3 two.
func TestResendAllocatesItsSlabs(t *testing.T) {
	tap := &discardTap{}
	a, err := New("a/fragment", tap, oneFragA, Config{Clock: event.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := a.Open(xk.NewApp("src", nil), xk.NewParticipants(
		xk.NewParticipant(oneFragProto), xk.NewParticipant(oneFragB)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(msg.New(msg.MakeData(16 * 1024))); err != nil { // twelve fragments, held
		t.Fatal(err)
	}
	lls, err := tap.Open(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		missing []int
		slabs   float64
	}{
		{scattered, 1},
		{scattered[:3], 2},
		{[]int{7}, 1},
		{[]int{0, 2, 3, 4, 8, 9, 10}, 3},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3},
	} {
		var have uint16 = 1<<12 - 1
		for _, i := range c.missing {
			have &^= 1 << i
		}
		hb := resendRequest(1, 12, have).Bytes()
		req := msg.Empty() // Demux pops the header; each run pushes it back
		got := testing.AllocsPerRun(100, func() {
			req.MustPush(hb)
			if err := a.Demux(lls, req); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.slabs {
			t.Errorf("resending %d fragments %v: %.0f allocations, want exactly %.0f", len(c.missing), c.missing, got, c.slabs)
		}
	}
}
