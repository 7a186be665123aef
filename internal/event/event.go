// Package event implements the x-kernel event tool: schedulable,
// cancellable timeouts.
//
// Protocols register a handler to run after a delay (retransmission
// timers in FRAGMENT, CHANNEL, and monolithic Sprite RPC; reassembly
// timeouts in IP) and may cancel it when the awaited message arrives.
//
// All timing goes through a Clock so unit tests can drive timers
// deterministically with a FakeClock while benchmarks use the real clock.
package event

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for protocols. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Schedule arranges for f to run after d, returning a handle that
	// can cancel the call. f runs on its own goroutine (real clock) or
	// on the Advance caller's goroutine (fake clock).
	Schedule(d time.Duration, f func()) *Event
}

// Event is a handle on a scheduled call. It can be cancelled, and re-armed
// with Reset any number of times, so a protocol that needs one timeout at
// a time (a channel's retransmission timer) sets the event up once per
// binding instead of once per call.
type Event struct {
	mu sync.Mutex
	f  func()
	// done: the current arm has fired or been cancelled.
	done bool
	// pending: the current arm's firing has neither been prevented nor
	// reached fire yet. stale counts firings of earlier arms that were
	// already on their way when Reset re-armed the event; fire discards
	// that many before it runs the handler, so the handler never runs on
	// behalf of an arm that Reset replaced.
	pending bool
	stale   int

	timer *time.Timer // real clock
	fake  *FakeClock  // fake clock, with the arm's entry in its pending list
	entry *fakeTimer
}

// Cancel stops the event if it has not yet fired. It reports whether the
// cancellation prevented the handler from running (false means the handler
// already ran or will run).
func (e *Event) Cancel() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return false
	}
	e.done = true
	if e.pending && e.unschedule() {
		e.pending = false
	}
	return true
}

// Reset re-arms the event to run its handler d from now, whether it is
// still pending, has fired, or was cancelled. A firing of the previous
// arm that is already under way is discarded, not delivered early.
func (e *Event) Reset(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var prevented bool
	if e.timer != nil {
		prevented = e.timer.Reset(d)
	} else {
		prevented = e.fake.rearm(e, d)
	}
	if e.pending && !prevented {
		e.stale++
	}
	e.pending = true
	e.done = false
}

// unschedule takes the pending firing back from the clock, reporting
// whether it got there first. Caller holds e.mu.
func (e *Event) unschedule() bool {
	if e.timer != nil {
		return e.timer.Stop()
	}
	return e.fake.remove(e.entry)
}

// fire is what the clock calls when an arm comes due.
func (e *Event) fire() {
	e.mu.Lock()
	if e.stale > 0 {
		e.stale--
		e.mu.Unlock()
		return
	}
	e.pending = false
	if e.done {
		e.mu.Unlock()
		return
	}
	e.done = true
	e.mu.Unlock()
	e.f()
}

// Timeout is one re-armable timeout for a caller that waits for it in a
// select beside whatever it is really waiting for — the shape of a
// retransmission timer. It is built once per binding (a channel has one
// call outstanding at a time, so one Timeout serves all its calls) and
// costs nothing per arm.
//
// Every arm must be settled before the next: either the caller received
// its expiry through Expired, or it calls Disarm. That is what keeps an
// expiry that races the awaited event from showing up in the next wait.
// A Timeout belongs to one waiter at a time; it is not for concurrent use.
type Timeout struct {
	// C delivers one token for each arm that expires. Report a token
	// taken from it with Expired.
	C     chan struct{}
	clock Clock
	ev    *Event
	armed bool // an arm is unsettled
}

// NewTimeout returns an unarmed timeout on clock.
func NewTimeout(clock Clock) *Timeout {
	return &Timeout{C: make(chan struct{}, 1), clock: clock}
}

// Arm starts the timeout: a token arrives on C after d unless Disarm
// comes first. The previous arm must have been settled, so the token's
// slot is empty and the handler's send never blocks.
func (t *Timeout) Arm(d time.Duration) {
	t.armed = true
	if t.ev == nil {
		t.ev = t.clock.Schedule(d, func() { t.C <- struct{}{} })
		return
	}
	t.ev.Reset(d)
}

// Expired settles the arm whose token the caller has just received
// from C.
func (t *Timeout) Expired() { t.armed = false }

// Disarm settles an arm whose token the caller has not received. If the
// timeout expired anyway — the handler ran or is about to — Disarm takes
// the token, so it cannot be mistaken for the next arm's. On a timeout
// with no unsettled arm (never armed, already disarmed, token already
// received) it does nothing.
func (t *Timeout) Disarm() {
	if !t.armed {
		return
	}
	t.armed = false
	if !t.ev.Cancel() {
		<-t.C
	}
}

// realClock implements Clock with package time.
type realClock struct{}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Schedule(d time.Duration, f func()) *Event {
	e := &Event{f: f, pending: true}
	e.mu.Lock() // the timer may fire before the assignment below lands
	e.timer = time.AfterFunc(d, e.fire)
	e.mu.Unlock()
	return e
}

// FakeClock is a manually advanced clock for deterministic tests.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	pending []*fakeTimer
	seq     int
}

type fakeTimer struct {
	at  time.Time
	seq int // FIFO tie-break for equal deadlines
	ev  *Event
}

// NewFake returns a FakeClock starting at an arbitrary fixed epoch.
func NewFake() *FakeClock {
	return &FakeClock{now: time.Date(1989, time.December, 3, 0, 0, 0, 0, time.UTC)}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule registers f to run when the clock is advanced past d from now.
func (c *FakeClock) Schedule(d time.Duration, f func()) *Event {
	e := &Event{f: f, fake: c, pending: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enqueueLocked(e, d)
	return e
}

// enqueueLocked adds an entry for e, due d from now. Caller holds c.mu
// (and, except at creation, e.mu).
func (c *FakeClock) enqueueLocked(e *Event, d time.Duration) {
	e.entry = &fakeTimer{at: c.now.Add(d), seq: c.seq, ev: e}
	c.seq++
	c.pending = append(c.pending, e.entry)
}

// rearm replaces e's entry with one due d from now, reporting whether
// the old entry was still waiting. Caller holds e.mu.
func (c *FakeClock) rearm(e *Event, d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	found := c.removeLocked(e.entry)
	c.enqueueLocked(e, d)
	return found
}

// remove drops t from the pending list, reporting whether it was still
// there; the Event mutex serializes against firing.
func (c *FakeClock) remove(t *fakeTimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(t)
}

func (c *FakeClock) removeLocked(t *fakeTimer) bool {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock forward by d, firing every due timer in deadline
// order on the caller's goroutine. Handlers may schedule further timers;
// those fire too if they fall within the advanced window.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		t := c.popDueLocked(target)
		if t == nil {
			break
		}
		if t.at.After(c.now) {
			c.now = t.at
		}
		c.mu.Unlock()
		t.ev.fire()
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

// popDueLocked removes and returns the earliest timer at or before target,
// or nil if none.
func (c *FakeClock) popDueLocked(target time.Time) *fakeTimer {
	if len(c.pending) == 0 {
		return nil
	}
	sort.SliceStable(c.pending, func(i, j int) bool {
		if !c.pending[i].at.Equal(c.pending[j].at) {
			return c.pending[i].at.Before(c.pending[j].at)
		}
		return c.pending[i].seq < c.pending[j].seq
	})
	if c.pending[0].at.After(target) {
		return nil
	}
	t := c.pending[0]
	c.pending = c.pending[1:]
	return t
}

// PendingCount reports the number of timers waiting to fire, for tests.
func (c *FakeClock) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// NextDeadline reports how far the clock must advance for the earliest
// pending timer to fire, and whether any timer is pending at all. An
// already-due timer (scheduled with a non-positive delay) reports zero.
func (c *FakeClock) NextDeadline() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		return 0, false
	}
	earliest := c.pending[0].at
	for _, t := range c.pending[1:] {
		if t.at.Before(earliest) {
			earliest = t.at
		}
	}
	d := earliest.Sub(c.now)
	if d < 0 {
		d = 0
	}
	return d, true
}

// AdvanceToNext advances the clock exactly to the earliest pending
// deadline and fires everything due at it, reporting whether a timer
// was pending. It is the step function of a deterministic scheduler:
// drivers that alternate "let the workload run" with AdvanceToNext
// visit every timer in order without overshooting any of them.
func (c *FakeClock) AdvanceToNext() bool {
	d, ok := c.NextDeadline()
	if !ok {
		return false
	}
	c.Advance(d)
	return true
}
