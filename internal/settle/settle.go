// Package settle is the shared goroutine-leak settle loop: after a
// testbed drains, the goroutine count must return to the baseline taken
// before it was built, but shepherds and timer handlers need scheduler
// time to unwind. The loop here replaces the two divergent copies that
// used to live in internal/chaos and the load conformance tests.
//
// The fast phase only yields (runtime.Gosched), which keeps it legal
// inside the deterministic packages where clockpurity bans the wall
// clock — chaos calls Goroutines with zero patience. Real-clock
// testbeds may still have short timers (fragment send-hold) due, so a
// positive patience adds a wall-clock phase of short sleeps for them.
//
// Watch answers the other question a deterministic driver asks of the
// scheduler: has this one goroutine stopped? Yielding a fixed number of
// times only guesses — on a loaded machine the yields return before the
// goroutine has run at all — so Watch reads the goroutine's state from
// the runtime's own stack dump, which cannot be early.
package settle

import (
	"bytes"
	"runtime"
	"time"
)

// spinRounds is the yield-only budget: each Gosched surrenders the
// processor to every other runnable goroutine, so this dwarfs the
// handoffs any exiting shepherd chain needs.
const spinRounds = 200_000

// Goroutines waits for the goroutine count to drop to baseline and
// returns the final count (<= baseline means settled). patience > 0
// extends the yield-only spin with up to that much wall time of short
// sleeps; deterministic harnesses pass 0 and never touch the clock.
func Goroutines(baseline int, patience time.Duration) int {
	n := runtime.NumGoroutine()
	for i := 0; i < spinRounds; i++ {
		if n <= baseline {
			return n
		}
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if patience > 0 {
		deadline := time.Now().Add(patience)
		for time.Now().Before(deadline) {
			// Give due timers wall time to fire and unwind, then yield
			// their handlers off the run queue.
			time.Sleep(5 * time.Millisecond)
			for i := 0; i < 1000; i++ {
				if n <= baseline {
					return n
				}
				runtime.Gosched()
				n = runtime.NumGoroutine()
			}
		}
	}
	return n
}

// TB is the slice of testing.TB the test helper needs; declaring it
// here keeps package testing out of non-test import graphs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Expect is the test-side wrapper: it settles and reports a leak as a
// test error rather than a return value.
func Expect(t TB, baseline int, patience time.Duration) {
	t.Helper()
	if n := Goroutines(baseline, patience); n > baseline {
		t.Errorf("goroutine leak: baseline %d, now %d", baseline, n)
	}
}

// Watch observes one goroutine. It is created by that goroutine and used
// by another.
type Watch struct {
	header []byte // "\ngoroutine 17 ["
	buf    []byte
}

// WatchSelf returns a Watch on the calling goroutine.
func WatchSelf() *Watch {
	var b [64]byte
	line := b[:runtime.Stack(b[:], false)] // "goroutine 17 [running]:..."
	id, _, _ := bytes.Cut(bytes.TrimPrefix(line, []byte("goroutine ")), []byte(" "))
	return &Watch{
		header: []byte("\ngoroutine " + string(id) + " ["),
		buf:    make([]byte, 64<<10),
	}
}

// Parked reports whether the watched goroutine is blocked in a channel
// operation — a select, a send or a receive with nothing ready — or has
// exited. Until another goroutine acts it will do nothing more. A
// goroutine that is running, runnable, in a system call or waiting for a
// lock someone else is about to release is not parked.
func (w *Watch) Parked() bool {
	n := runtime.Stack(w.buf, true)
	for n == len(w.buf) { // truncated: the goroutine may be past the end
		w.buf = make([]byte, 2*len(w.buf))
		n = runtime.Stack(w.buf, true)
	}
	dump := w.buf[:n]
	// The dump opens with the caller's own goroutine, never the watched
	// one; every other header follows a blank line.
	i := bytes.Index(dump, w.header)
	if i < 0 {
		return true // exited
	}
	state := dump[i+len(w.header):]
	state = state[:bytes.IndexAny(state, ",]")]
	switch string(state) {
	case "select", "chan receive", "chan send":
		return true
	}
	return false
}
