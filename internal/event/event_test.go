package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFakeClockFiresInOrder(t *testing.T) {
	c := NewFake()
	var order []int
	var mu sync.Mutex
	add := func(n int) func() {
		return func() {
			mu.Lock()
			order = append(order, n)
			mu.Unlock()
		}
	}
	c.Schedule(30*time.Millisecond, add(3))
	c.Schedule(10*time.Millisecond, add(1))
	c.Schedule(20*time.Millisecond, add(2))
	c.Advance(25 * time.Millisecond)
	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	c.Advance(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", order)
	}
}

func TestFakeClockFIFOTieBreak(t *testing.T) {
	c := NewFake()
	var order []int
	c.Schedule(time.Millisecond, func() { order = append(order, 1) })
	c.Schedule(time.Millisecond, func() { order = append(order, 2) })
	c.Advance(time.Millisecond)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("fired %v, want [1 2]", order)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewFake()
	fired := false
	ev := c.Schedule(time.Millisecond, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	c.Advance(10 * time.Millisecond)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d timers still pending", c.PendingCount())
	}
}

func TestCancelAfterFireReportsFalse(t *testing.T) {
	c := NewFake()
	ev := c.Schedule(time.Millisecond, func() {})
	c.Advance(time.Millisecond)
	if ev.Cancel() {
		t.Fatal("Cancel after firing should report false")
	}
}

func TestHandlerMaySchedule(t *testing.T) {
	c := NewFake()
	var fired atomic.Int32
	c.Schedule(time.Millisecond, func() {
		fired.Add(1)
		c.Schedule(time.Millisecond, func() { fired.Add(1) })
	})
	c.Advance(5 * time.Millisecond)
	if fired.Load() != 2 {
		t.Fatalf("fired %d, want 2 (chained schedule within window)", fired.Load())
	}
}

func TestChainedScheduleBeyondWindow(t *testing.T) {
	c := NewFake()
	var fired atomic.Int32
	c.Schedule(time.Millisecond, func() {
		fired.Add(1)
		c.Schedule(time.Hour, func() { fired.Add(1) })
	})
	c.Advance(5 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("fired %d, want 1", fired.Load())
	}
	if c.PendingCount() != 1 {
		t.Fatalf("pending %d, want 1", c.PendingCount())
	}
}

func TestNowAdvances(t *testing.T) {
	c := NewFake()
	t0 := c.Now()
	c.Advance(time.Minute)
	if got := c.Now().Sub(t0); got != time.Minute {
		t.Fatalf("advanced %v, want 1m", got)
	}
}

func TestNowDuringFireMatchesDeadline(t *testing.T) {
	c := NewFake()
	t0 := c.Now()
	var at time.Duration
	c.Schedule(10*time.Millisecond, func() { at = c.Now().Sub(t0) })
	c.Advance(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("handler saw t+%v, want t+10ms", at)
	}
}

func TestRealClockFiresAndCancels(t *testing.T) {
	c := Real()
	ch := make(chan struct{})
	c.Schedule(time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer did not fire")
	}
	fired := make(chan struct{})
	ev := c.Schedule(50*time.Millisecond, func() { close(fired) })
	if !ev.Cancel() {
		t.Fatal("cancel failed")
	}
	select {
	case <-fired:
		t.Fatal("cancelled real timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestConcurrentScheduleAndCancel(t *testing.T) {
	c := NewFake()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ev := c.Schedule(time.Millisecond, func() {})
				ev.Cancel()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			c.Advance(time.Millisecond)
		}
		close(done)
	}()
	wg.Wait()
	<-done
}

func TestNextDeadlineAndAdvanceToNext(t *testing.T) {
	c := NewFake()
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("empty clock reported a deadline")
	}
	if c.AdvanceToNext() {
		t.Fatal("empty clock advanced")
	}
	var order []int
	c.Schedule(30*time.Millisecond, func() { order = append(order, 30) })
	c.Schedule(10*time.Millisecond, func() { order = append(order, 10) })
	d, ok := c.NextDeadline()
	if !ok || d != 10*time.Millisecond {
		t.Fatalf("NextDeadline = %v,%v, want 10ms,true", d, ok)
	}
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext found nothing")
	}
	if len(order) != 1 || order[0] != 10 {
		t.Fatalf("fired %v, want [10] only", order)
	}
	// The later timer is untouched and 20ms away now.
	if d, _ := c.NextDeadline(); d != 20*time.Millisecond {
		t.Fatalf("NextDeadline = %v, want 20ms", d)
	}
	c.AdvanceToNext()
	if len(order) != 2 || order[1] != 30 {
		t.Fatalf("fired %v, want [10 30]", order)
	}
}

// ---- Reset: one event per binding, re-armed per call ----

func TestFakeResetAfterFire(t *testing.T) {
	c := NewFake()
	fired := 0
	ev := c.Schedule(10*time.Millisecond, func() { fired++ })
	c.Advance(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	ev.Reset(20 * time.Millisecond)
	if d, ok := c.NextDeadline(); !ok || d != 20*time.Millisecond {
		t.Fatalf("after Reset NextDeadline = %v,%v, want 20ms,true", d, ok)
	}
	c.Advance(19 * time.Millisecond)
	if fired != 1 {
		t.Fatal("re-armed event fired early")
	}
	c.Advance(time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired %d times after re-arm, want 2", fired)
	}
	if ev.Cancel() {
		t.Fatal("Cancel after the re-armed firing should report false")
	}
}

func TestFakeResetAfterCancel(t *testing.T) {
	c := NewFake()
	fired := 0
	ev := c.Schedule(10*time.Millisecond, func() { fired++ })
	if !ev.Cancel() {
		t.Fatal("cancel failed")
	}
	ev.Reset(5 * time.Millisecond)
	if c.PendingCount() != 1 {
		t.Fatalf("%d timers pending after re-arm, want 1", c.PendingCount())
	}
	c.Advance(5 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

// Reset of a still-pending event moves the deadline and leaves exactly
// one entry on the clock.
func TestFakeResetWhilePending(t *testing.T) {
	c := NewFake()
	fired := 0
	ev := c.Schedule(10*time.Millisecond, func() { fired++ })
	ev.Reset(30 * time.Millisecond)
	if c.PendingCount() != 1 {
		t.Fatalf("%d timers pending, want 1", c.PendingCount())
	}
	c.Advance(29 * time.Millisecond)
	if fired != 0 {
		t.Fatal("fired at the replaced deadline")
	}
	c.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

// A firing already taken off the clock when Reset re-arms the event
// belongs to the replaced arm: it is discarded, and the handler runs
// once, at the new deadline. The limbo is built by hand — the entry is
// popped the way Advance pops it, then delivered after the Reset.
func TestStaleFiringIgnored(t *testing.T) {
	c := NewFake()
	fired := 0
	ev := c.Schedule(time.Millisecond, func() { fired++ })
	c.mu.Lock()
	stale := c.popDueLocked(c.now.Add(time.Millisecond))
	c.mu.Unlock()
	if stale == nil {
		t.Fatal("nothing was due")
	}
	ev.Reset(10 * time.Millisecond)
	stale.ev.fire()
	if fired != 0 {
		t.Fatal("the replaced arm's firing ran the handler")
	}
	c.Advance(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired)
	}
	// The same limbo, but the arm is cancelled and re-armed twice before
	// the stale firing lands.
	c.mu.Lock()
	c.pending = nil
	c.mu.Unlock()
	ev.Reset(time.Millisecond)
	c.mu.Lock()
	stale = c.popDueLocked(c.now.Add(time.Millisecond))
	c.mu.Unlock()
	ev.Cancel()
	ev.Reset(5 * time.Millisecond)
	ev.Reset(7 * time.Millisecond)
	stale.ev.fire()
	c.Advance(6 * time.Millisecond)
	if fired != 1 {
		t.Fatal("stale firing or replaced deadline ran the handler")
	}
	c.Advance(time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestRealResetAfterFireAndAfterCancel(t *testing.T) {
	c := Real()
	fired := make(chan time.Time, 1)
	ev := c.Schedule(time.Millisecond, func() { fired <- time.Now() })
	wait := func(what string) time.Time {
		t.Helper()
		select {
		case at := <-fired:
			return at
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: real timer did not fire", what)
			return time.Time{}
		}
	}
	wait("first arm")
	armed := time.Now()
	ev.Reset(5 * time.Millisecond)
	if at := wait("re-arm after fire"); at.Sub(armed) < 5*time.Millisecond {
		t.Fatalf("re-armed event fired after %v, before its 5ms", at.Sub(armed))
	}
	ev.Reset(time.Hour)
	if !ev.Cancel() {
		t.Fatal("cancel of the re-armed event failed")
	}
	armed = time.Now()
	ev.Reset(2 * time.Millisecond)
	if at := wait("re-arm after cancel"); at.Sub(armed) < 2*time.Millisecond {
		t.Fatalf("re-armed event fired after %v, before its 2ms", at.Sub(armed))
	}
}

// One event re-armed in a tight loop around its own expiry, the way a
// channel re-arms its retransmission timer per call: arm, wait a little,
// Cancel; a false Cancel means the handler ran or will run, so its token
// is collected before the next arm. Whatever the interleaving of expiry,
// Cancel and Reset, every firing is collected exactly once, and no
// handler runs before the deadline of the arm it belongs to.
func TestRealResetRacesExpiry(t *testing.T) {
	c := Real()
	var mu sync.Mutex
	var due time.Time
	var early, overflow int
	token := make(chan struct{}, 1)
	ev := c.Schedule(time.Hour, func() {
		now := time.Now()
		mu.Lock()
		if now.Before(due) {
			early++
		}
		select {
		case token <- struct{}{}:
		default:
			overflow++
		}
		mu.Unlock()
	})
	ev.Cancel()
	fired := 0
	for i := 0; i < 2000; i++ {
		d := time.Duration(i%4) * 20 * time.Microsecond
		mu.Lock()
		due = time.Now().Add(d)
		mu.Unlock()
		ev.Reset(d)
		for spin := time.Now(); time.Since(spin) < time.Duration(i%5)*10*time.Microsecond; {
		}
		if !ev.Cancel() {
			select {
			case <-token:
				fired++
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: Cancel reported the handler would run, but it never did", i)
			}
		}
	}
	select {
	case <-token:
		t.Fatal("a firing was left over after every arm had been settled")
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	if early != 0 || overflow != 0 {
		t.Fatalf("%d early and %d uncollected firings out of %d", early, overflow, fired)
	}
	if fired == 0 {
		t.Fatal("no arm ever expired: the race was not exercised")
	}
}

// The same race on the fake clock: Advance on one goroutine, Cancel and
// Reset on another.
func TestFakeResetRacesAdvance(t *testing.T) {
	c := NewFake()
	var runs atomic.Int64
	ev := c.Schedule(time.Millisecond, func() { runs.Add(1) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Advance(time.Millisecond)
			}
		}
	}()
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		if i%3 == 0 {
			ev.Cancel()
		}
		ev.Reset(time.Duration(i%3) * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	ev.Cancel()
	ev.Reset(time.Millisecond)
	before := runs.Load()
	c.Advance(time.Millisecond)
	if got := runs.Load() - before; got != 1 {
		t.Fatalf("final arm fired %d times, want 1", got)
	}
	if runs.Load() > rounds+2 {
		t.Fatalf("handler ran %d times for %d arms", runs.Load(), rounds+2)
	}
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("%d entries left on the clock", n)
	}
}

// Timeout is the packaged form of that protocol. Armed and disarmed
// around its own expiry on the real clock, it never carries a token from
// one arm into the next; on the fake clock an expiry is delivered on C
// and the timeout can be armed again.
func TestTimeoutSettlesEveryArm(t *testing.T) {
	to := NewTimeout(Real())
	expired := 0
	for i := 0; i < 2000; i++ {
		to.Arm(time.Duration(i%4) * 20 * time.Microsecond)
		for spin := time.Now(); time.Since(spin) < time.Duration(i%5)*10*time.Microsecond; {
		}
		if i%7 == 0 {
			select {
			case <-to.C: // the caller saw the expiry itself: settled
				to.Expired()
				expired++
				continue
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: armed timeout never expired", i)
			}
		}
		to.Disarm()
		if len(to.C) != 0 {
			t.Fatalf("round %d: a token survived Disarm", i)
		}
	}
	if expired == 0 {
		t.Fatal("no arm was ever left to expire")
	}

	c := NewFake()
	ft := NewTimeout(c)
	for round := 0; round < 3; round++ {
		ft.Arm(10 * time.Millisecond)
		c.Advance(10 * time.Millisecond)
		select {
		case <-ft.C:
			ft.Expired()
		default:
			t.Fatalf("round %d: no token after the fake clock passed the deadline", round)
		}
		ft.Disarm() // settled already: nothing to take, nothing to wait for
		ft.Arm(10 * time.Millisecond)
		ft.Disarm()
		ft.Disarm() // and a second Disarm of the same arm is a no-op too
		if c.PendingCount() != 0 || len(ft.C) != 0 {
			t.Fatalf("round %d: Disarm left %d timers and %d tokens", round, c.PendingCount(), len(ft.C))
		}
	}
}

// Disarm on a timeout with no unsettled arm returns at once: before the
// first Arm, twice in a row, and after the caller took the token itself —
// on both clocks, and also when the arm being disarmed has already
// expired (Disarm takes that token; the second Disarm must not wait for
// another).
func TestTimeoutDisarmWithoutUnsettledArm(t *testing.T) {
	c := NewFake()
	for name, clock := range map[string]Clock{"real": Real(), "fake": c} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			to := NewTimeout(clock)
			to.Disarm() // never armed
			to.Arm(time.Hour)
			to.Disarm()
			to.Disarm()
			to.Arm(0) // expires before it is disarmed
			if clock == Clock(c) {
				c.Advance(0)
			} else {
				for len(to.C) == 0 {
					time.Sleep(10 * time.Microsecond)
				}
			}
			to.Disarm()
			to.Disarm()
			if len(to.C) != 0 {
				t.Errorf("%s clock: a token survived Disarm", name)
			}
			to.Arm(time.Hour) // still usable
			to.Disarm()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s clock: Disarm with no unsettled arm blocked", name)
		}
	}
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("%d entries left on the fake clock", n)
	}
}
