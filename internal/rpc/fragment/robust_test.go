package fragment_test

// Gap-chase robustness: the NoRetries sentinel, the zero-means-default
// fix, and pluggable spacing of resend requests.

import (
	"testing"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/sim"
	"xkernel/internal/xk"
)

var clientMAC = xk.EthAddr{0x02, 0, 0, 0, 0, 1}

// loseTailFromClient drops every client frame after the first, so the
// receiver holds exactly one fragment and every resend goes unanswered.
func loseTailFromClient(b *bed) {
	offered := 0
	b.inj.DropWhere(func(src, _ xk.EthAddr) bool {
		offered++ // every frame on the segment, in offer order
		return offered > 1 && src == clientMAC
	}, 0)
}

func TestNoGapRetriesAbandonsWithoutAsking(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{GapRetries: fragment.NoRetries})
	sink(t, b.sf)
	loseTailFromClient(b)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(msg.MakeData(3000))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.clock.Advance(100 * time.Millisecond)
	}
	st := b.sf.Stats()
	if st.ResendRequestsSent != 0 {
		t.Fatalf("NoRetries still sent %d resend requests", st.ResendRequestsSent)
	}
	if st.MessagesAbandoned != 1 {
		t.Fatalf("MessagesAbandoned = %d, want 1", st.MessagesAbandoned)
	}
}

func TestZeroGapRetriesKeepsDefault(t *testing.T) {
	// The sentinel fix must not change the default: zero still means 4.
	b := build(t, sim.Config{}, fragment.Config{})
	sink(t, b.sf)
	loseTailFromClient(b)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(msg.MakeData(3000))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.clock.Advance(100 * time.Millisecond)
	}
	st := b.sf.Stats()
	if st.ResendRequestsSent != 4 {
		t.Fatalf("ResendRequestsSent = %d, want the default 4", st.ResendRequestsSent)
	}
	if st.MessagesAbandoned != 1 {
		t.Fatalf("MessagesAbandoned = %d, want 1", st.MessagesAbandoned)
	}
}

func TestGapChaseHonorsRetryPolicy(t *testing.T) {
	// Exponential spacing: chases fire at 30ms then 30+60=90ms, not at
	// every gap timeout.
	b := build(t, sim.Config{}, fragment.Config{
		GapTimeout: 30 * time.Millisecond,
		Retry:      retry.Exponential{},
	})
	sink(t, b.sf)
	loseTailFromClient(b)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(msg.MakeData(3000))); err != nil {
		t.Fatal(err)
	}
	requests := func() int64 { return b.sf.Stats().ResendRequestsSent }
	b.clock.Advance(30 * time.Millisecond)
	if got := requests(); got != 1 {
		t.Fatalf("after 30ms: %d requests, want 1", got)
	}
	b.clock.Advance(30 * time.Millisecond)
	if got := requests(); got != 1 {
		t.Fatalf("after 60ms: %d requests, want still 1 (backoff)", got)
	}
	b.clock.Advance(30 * time.Millisecond)
	if got := requests(); got != 2 {
		t.Fatalf("after 90ms: %d requests, want 2", got)
	}
}
