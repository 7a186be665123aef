package amo_test

import (
	"fmt"
	"testing"
	"time"

	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/fragmask"
)

// rungs is a retry policy whose every attempt waits a different
// interval, so a wait computed for the wrong attempt shows.
type rungs struct{}

func (rungs) Interval(attempt int, base time.Duration) time.Duration {
	return base*time.Duration(attempt+1) + time.Duration(attempt)
}

// walk is one path through the call machine with the specification's
// own account of it: the fragments acknowledged since the last full
// probe, and the waits so far.
type walk struct {
	c          amo.Call
	acked      uint16
	waits      int
	full       uint16
	maxRetries int
	// events is the path so far, for the failure message: an ack's mask,
	// or expire.
	events [16]int32
	n      int
}

const expireEvent = -1

func (w *walk) note(e int32) {
	w.events[w.n] = e
	w.n++
}

func (w *walk) trail() string {
	s := ""
	for _, e := range w.events[:w.n] {
		if e == expireEvent {
			s += " expire"
		} else {
			s += fmt.Sprintf(" ack(%#x)", e)
		}
	}
	return s
}

// TestCallMachineExhaustive drives the call machine through every
// sequence of ack(mask) and expire up to a bounded length, for one to
// four fragments and MaxRetries zero to three, then expires it until it
// times out. Every mask is offered, including one naming no fragment of
// the message. At every attempt it checks:
//   - attempt 0 sends every fragment and asks for no ack;
//   - a retransmission asks for an ack and sends exactly the fragments
//     not acknowledged since the last full probe — no acknowledged
//     fragment is re-sent, except by the full re-probe that follows an
//     ack of every fragment;
//   - each wait is Policy.Interval(attempt, base);
//
// and that the call times out after exactly MaxRetries+1 waits.
func TestCallMachineExhaustive(t *testing.T) {
	const base = 50 * time.Millisecond
	var seqs int
	for frags := uint16(1); frags <= 4; frags++ {
		full := fragmask.Full(frags)
		// The alphabet: every non-empty mask of the message's fragments,
		// one bit beyond them, and expire.
		masks := []uint16{full + 1}
		for m := uint16(1); m <= full; m++ {
			masks = append(masks, m)
		}
		depth := 8 - int(frags) // 3, 5, 9 and 17 symbols: 2,187 to 83,521 sequences each

		for maxRetries := 0; maxRetries <= 3; maxRetries++ {
			w := walk{full: full, maxRetries: maxRetries}
			w.c.Start(frags, base, maxRetries, rungs{})
			w.checkSend(t, base)
			seqs += w.explore(t, base, masks, depth)
		}
	}
	t.Logf("%d event sequences", seqs)
}

// explore extends w by every event while depth lasts, then runs it out.
// It returns the number of sequences it completed.
func (w walk) explore(t *testing.T, base time.Duration, masks []uint16, depth int) int {
	if depth == 0 {
		w.runOut(t, base)
		return 1
	}
	n := 0
	for _, m := range masks {
		next := w
		next.c.Ack(m)
		next.acked |= m & w.full
		next.note(int32(m))
		n += next.explore(t, base, masks, depth-1)
	}
	next := w
	if next.expire(t, base) {
		n += next.explore(t, base, masks, depth-1)
	} else {
		n++
	}
	return n
}

// expire applies one expiry to the machine and the specification alike.
// It reports false once the call timed out.
func (w *walk) expire(t *testing.T, base time.Duration) bool {
	w.waits++
	w.note(expireEvent)
	again := w.c.Expire()
	if w.waits > w.maxRetries {
		if again {
			t.Fatalf("frags %#x MaxRetries %d:%s: retried after %d waits", w.full, w.maxRetries, w.trail(), w.waits)
		}
		if w.waits != w.maxRetries+1 {
			t.Fatalf("frags %#x MaxRetries %d:%s: timed out after %d waits", w.full, w.maxRetries, w.trail(), w.waits)
		}
		return false
	}
	if !again {
		t.Fatalf("frags %#x MaxRetries %d:%s: timed out after %d waits", w.full, w.maxRetries, w.trail(), w.waits)
	}
	w.checkSend(t, base)
	if w.acked == w.full {
		w.acked = 0 // the full re-probe: acknowledgements count afresh
	}
	return true
}

// runOut expires w until the call times out.
func (w walk) runOut(t *testing.T, base time.Duration) {
	for w.expire(t, base) {
	}
}

// checkSend holds the current attempt to the specification.
func (w *walk) checkSend(t *testing.T, base time.Duration) {
	send, pleaseAck := w.c.Send()
	attempt := w.c.Attempt()
	where := func() string {
		return fmt.Sprintf("frags %#x MaxRetries %d:%s: attempt %d", w.full, w.maxRetries, w.trail(), attempt)
	}
	if attempt != w.waits {
		t.Fatalf("%s: after %d waits", where(), w.waits)
	}
	if got, want := w.c.Wait(), (rungs{}).Interval(attempt, base); got != want {
		t.Fatalf("%s: waits %v, want %v", where(), got, want)
	}
	switch {
	case attempt == 0:
		if send != w.full || pleaseAck {
			t.Fatalf("%s: sends %#x (please-ack %v), want every fragment %#x and no please-ack", where(), send, pleaseAck, w.full)
		}
	case !pleaseAck:
		t.Fatalf("%s: a retransmission without please-ack", where())
	case w.acked == w.full:
		if send != w.full {
			t.Fatalf("%s: everything acknowledged, sends %#x; want the full re-probe %#x", where(), send, w.full)
		}
	case send&w.acked != 0:
		t.Fatalf("%s: re-sends acknowledged fragments %#x", where(), send&w.acked)
	case send != w.full&^w.acked:
		t.Fatalf("%s: sends %#x, want every unacknowledged fragment %#x", where(), send, w.full&^w.acked)
	}
}
