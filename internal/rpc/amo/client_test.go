package amo_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/retry"
)

// deliver hands slot a reply for seq as a receiving goroutine does, and
// reports whether the slot accepted it.
func deliver(c *amo.Client, seq uint32, body string) bool {
	if !c.Accept(seq) {
		return false
	}
	c.Deliver(msg.New([]byte(body)), nil)
	return true
}

// waitOut runs Wait on its own goroutine and advances clock past every
// arm until it returns, so an empty slot expires instead of blocking.
func waitOut(clock *event.FakeClock, c *amo.Client) (r amo.Reply, replied, again bool) {
	type result struct {
		r              amo.Reply
		replied, again bool
	}
	done := make(chan result, 1)
	go func() {
		r, replied, again := c.Wait()
		done <- result{r, replied, again}
	}()
	for {
		select {
		case res := <-done:
			return res.r, res.replied, res.again
		default:
			clock.AdvanceToNext()
			runtime.Gosched()
		}
	}
}

// A call takes only its own reply: a duplicate that lands after the call
// took its reply is drained when the next call starts, a reply to another
// sequence number is refused, and nothing is left behind — no reply, no
// timeout token, no pending timer — when a call returns.
func TestClientOneCallAtATime(t *testing.T) {
	clock := event.NewFake()
	var c amo.Client
	c.Init(clock, nil)

	seq, ok := c.Start(1, time.Second, 0, retry.Step{})
	if !ok || seq != 1 {
		t.Fatalf("first call: seq %d, ok %v", seq, ok)
	}
	if _, ok := c.Start(1, time.Second, 0, retry.Step{}); ok {
		t.Fatal("a second call claimed a busy slot")
	}
	if !deliver(&c, 1, "one") {
		t.Fatal("the current call's reply was refused")
	}
	if r, replied, _ := c.Wait(); !replied || string(r.M.Bytes()) != "one" {
		t.Fatalf("call 1 returned %+v (replied %v)", r, replied)
	}
	// The duplicate arrives after call 1 took its reply, before it ends.
	if !deliver(&c, 1, "duplicate") {
		t.Fatal("a reply to the call still holding the slot was refused")
	}
	c.Finish()
	if deliver(&c, 1, "late") {
		t.Fatal("an idle slot accepted a reply")
	}

	seq, ok = c.Start(1, time.Second, 0, retry.Step{})
	if !ok || seq != 2 {
		t.Fatalf("second call: seq %d, ok %v", seq, ok)
	}
	if deliver(&c, 1, "stale") {
		t.Fatal("call 2 accepted call 1's sequence number")
	}
	if _, replied, again := waitOut(clock, &c); replied || again {
		t.Fatal("call 2 was handed call 1's duplicate, or retried with no retries left")
	}
	c.Finish()

	seq, _ = c.Start(1, time.Second, 0, retry.Step{})
	if !deliver(&c, seq, "three") {
		t.Fatal("call 3's reply was refused")
	}
	if r, replied, _ := c.Wait(); !replied || string(r.M.Bytes()) != "three" {
		t.Fatalf("call 3 returned %+v (replied %v): a timeout token outlived call 2", r, replied)
	}
	c.Finish()
	if n := clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending between calls", n)
	}
}

// Wait waits Policy.Interval for each attempt, retransmits MaxRetries
// times and then times out; an explicit ack reaches the call machine
// (the next attempt asks for one and, everything acknowledged, re-probes).
func TestClientWaitFollowsTheCallMachine(t *testing.T) {
	clock := event.NewFake()
	var c amo.Client
	c.Init(clock, nil)
	seq, _ := c.Start(1, 10*time.Millisecond, 2, retry.Exponential{})
	defer c.Finish()
	if !c.Accept(seq) {
		t.Fatal("the current call refused its ack")
	}
	c.Ack(1)
	start := clock.Now()
	for attempt := 0; attempt <= 2; attempt++ {
		if got := c.Attempt(); got != attempt {
			t.Fatalf("attempt %d, want %d", got, attempt)
		}
		if send, pleaseAck := c.Send(); send != 1 || pleaseAck != (attempt > 0) {
			t.Fatalf("attempt %d sends %#x, please-ack %v", attempt, send, pleaseAck)
		}
		_, replied, again := waitOut(clock, &c)
		if replied || again != (attempt < 2) {
			t.Fatalf("attempt %d: replied %v, again %v", attempt, replied, again)
		}
	}
	if got, want := clock.Now().Sub(start), 70*time.Millisecond; got != want {
		t.Fatalf("timed out after %v, want %v (10 + 20 + 40 ms)", got, want)
	}
}

// Slots given one counter number their calls from it, protocol-wide.
func TestClientSharedSequenceNumbers(t *testing.T) {
	var xids atomic.Uint32
	var a, b amo.Client
	a.Init(event.NewFake(), &xids)
	b.Init(event.NewFake(), &xids)
	for want, c := range []*amo.Client{&a, &b, &a} {
		seq, ok := c.Start(1, time.Second, 0, retry.Step{})
		if !ok || seq != uint32(want+1) {
			t.Fatalf("call %d numbered %d (ok %v)", want+1, seq, ok)
		}
		c.Finish()
	}
}

// The held request is a copy: a retransmission clones it as it was
// before the first transmission framed the original.
func TestClientHeldIsACopy(t *testing.T) {
	var c amo.Client
	c.Init(event.NewFake(), nil)
	c.Start(1, time.Second, 0, retry.Step{})
	m := msg.New([]byte("request"))
	c.Hold(m)
	m.MustPush([]byte("hdr:"))
	if got := string(c.Held().Bytes()); got != "request" {
		t.Fatalf("held %q", got)
	}
	c.Finish()
}
