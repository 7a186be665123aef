package selectp_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/xk"
)

// waitParked spins until n callers are parked on s's channel pool.
func waitParked(t *testing.T, s *selectp.Session, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked, want %d", s.Waiting(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// A lone caller rides one channel: the server holds state for exactly
// one channel however many calls it makes.
func TestLoneCallerRidesOneChannel(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	for range 20 {
		if _, err := s.CallBytes(cmdEcho, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.sc.ServerChannels(); got != 1 {
		t.Fatalf("server holds %d channels for a lone caller's 20 calls, want 1", got)
	}
	if got := b.sc.Stats().RequestsServed; got != 20 {
		t.Fatalf("served %d, want 20", got)
	}
}

// With one channel, a caller parked behind a looping caller completes
// before the looping caller's next-but-one call: returning the channel
// hands it to the parked caller, and taking it again queues.
func TestParkedCallerIsNotBargedPast(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{NumChannels: 1})
	s := open(t, b.cs)
	var mu sync.Mutex
	var order []string
	note := func(what string) {
		mu.Lock()
		order = append(order, what)
		mu.Unlock()
	}
	b.inflight.Add(1)
	loop := make(chan error, 1)
	go func() {
		if _, err := s.Call(cmdBlock, msg.Empty()); err != nil {
			loop <- err
			return
		}
		note("loop 1")
		for _, name := range []string{"loop 2", "loop 3"} {
			if _, err := s.CallBytes(cmdEcho, []byte(name)); err != nil {
				loop <- err
				return
			}
			note(name)
		}
		loop <- nil
	}()
	b.inflight.Wait() // the looping caller holds the one channel
	parked := make(chan error, 1)
	go func() {
		_, err := s.CallBytes(cmdEcho, []byte("parked"))
		note("parked")
		parked <- err
	}()
	waitParked(t, s, 1)
	close(b.unblock)
	if err := <-loop; err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	at := map[string]int{}
	for i, what := range order {
		at[what] = i
	}
	if at["parked"] > at["loop 3"] {
		t.Fatalf("order %v: the parked caller finished after the looping caller's next-but-one call", order)
	}
}

// Close with a call in flight waits for it, then closes every channel.
func TestCloseWaitsForTheCallInFlight(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{NumChannels: 2})
	s := open(t, b.cs)
	b.inflight.Add(1)
	call := make(chan error, 1)
	go func() {
		_, err := s.Call(cmdBlock, msg.Empty())
		call <- err
	}()
	b.inflight.Wait()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitParked(t, s, 1) // Close holds the idle channel and waits for the busy one
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a call in flight", err)
	default:
	}
	close(b.unblock)
	if err := <-call; err != nil {
		t.Fatalf("call in flight at Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := b.cc.ClientChannels(); got != 0 {
		t.Fatalf("%d client channels still open after Close, want 0", got)
	}
}

// PoolFree, PoolBusy and CtlFreeChannels read the same flags: they agree
// at rest, with calls parked in the server, and after.
func TestPoolGaugesAgree(t *testing.T) {
	const n = 4
	b := build(t, sim.Config{}, selectp.Config{NumChannels: n})
	s := open(t, b.cs)
	check := func(when string, busy int) {
		t.Helper()
		ctl, err := s.Control(xk.CtlFreeChannels, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.cs.PoolBusy() != int64(busy) || b.cs.PoolFree() != int64(n-busy) || ctl.(int) != n-busy {
			t.Fatalf("%s: busy %d, free %d, CtlFreeChannels %v; want %d busy", when, b.cs.PoolBusy(), b.cs.PoolFree(), ctl, busy)
		}
	}
	check("at rest", 0)
	b.inflight.Add(2)
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := s.Call(cmdBlock, msg.Empty())
			errs <- err
		}()
	}
	b.inflight.Wait()
	check("two calls parked in the server", 2)
	close(b.unblock)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	check("after", 0)
}

// pushOnly is a lower protocol whose sessions can push but not call.
type pushOnly struct{ xk.BaseProtocol }

type pushOnlySession struct{ xk.BaseSession }

func (p *pushOnly) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *pushOnly) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &pushOnlySession{}
	s.InitSession(p, hlp)
	return s, nil
}

// A lower session that cannot make a call is refused at Open, as an
// unsupported operation, instead of failing every call later.
func TestOpenRefusesALowerSessionThatCannotCall(t *testing.T) {
	sel, err := selectp.New("select", &pushOnly{}, selectp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sel.Open(xk.NewApp("cli", nil), &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
	if !errors.Is(err, xk.ErrOpNotSupported) {
		t.Fatalf("open over push-only sessions: %v, want ErrOpNotSupported", err)
	}
}

// SELECT composed straight over FRAGMENT never reaches a call: FRAGMENT
// refuses a channel-numbered participant set at Open, before any session
// exists.
func TestSelectOverFragmentIsRefusedAtOpen(t *testing.T) {
	clock := event.NewFake()
	client, _, _, err := stacks.TwoHosts(sim.Config{}, clock)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vip.New("client/vip", client.Eth, client.IP, client.ARP)
	if err != nil {
		t.Fatal(err)
	}
	hv, _ := client.IP.Control(xk.CtlGetMyHost, nil)
	f, err := fragment.New("client/fragment", v, hv.(xk.IPAddr), fragment.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := selectp.New("client/select", f, selectp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sel.Open(xk.NewApp("cli", nil), &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
	if !errors.Is(err, xk.ErrBadParticipants) {
		t.Fatalf("open over FRAGMENT: %v, want ErrBadParticipants", err)
	}
}
