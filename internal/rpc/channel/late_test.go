package channel_test

import (
	"errors"
	"testing"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/sim"
	"xkernel/internal/xk"
)

// dispatch is one request handed to the parked-handler server: its
// payload, and the channel that lets its handler reply.
type dispatch struct {
	body    string
	release chan struct{}
}

// parkedServer registers an app on sc whose handler replies "reply to
// <payload>" from its own goroutine, once the test releases it. Every
// dispatch is reported on the first channel returned, every Push's error
// on the second.
func parkedServer(t *testing.T, sc *channel.Protocol) (<-chan dispatch, <-chan error) {
	t.Helper()
	dispatched := make(chan dispatch, 4)
	pushed := make(chan error, 4)
	app := xk.NewApp("srv", nil)
	app.Deliver = func(s xk.Session, m *msg.Msg) error {
		ss := s.(*channel.ServerSession)
		d := dispatch{body: string(m.Bytes()), release: make(chan struct{})}
		dispatched <- d
		go func() {
			<-d.release
			pushed <- ss.Push(msg.New([]byte("reply to " + d.body)))
		}()
		return nil
	}
	if err := sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	return dispatched, pushed
}

type callResult struct {
	reply string
	err   error
}

func goCall(s *channel.Session, body string) <-chan callResult {
	done := make(chan callResult, 1)
	go func() {
		r, err := s.Call(msg.New([]byte(body)))
		if err != nil {
			done <- callResult{err: err}
			return
		}
		done <- callResult{reply: string(r.Bytes())}
	}()
	return done
}

// A call must never return another call's result (a handler that
// outlives its call). Call 1 times out while its handler is parked; call
// 2 on the same channel waits, acknowledged, behind it instead of being
// admitted; when handler 1 finally replies, its reply is refused —
// neither recorded nor sent — and call 2's next probe runs call 2's own
// handler. Call 2 returns its own reply.
func TestLateHandlerNeverAnswersTheNextCall(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{MaxRetries: 2})
	dispatched, pushed := parkedServer(t, b.sc)
	s := open(t, b.cc, 0)

	// drive runs the fake clock until done answers, releasing (and
	// waiting out) each handler dispatched meanwhile unless hold says
	// to keep it parked.
	drive := func(done <-chan callResult, hold func(dispatch) bool) (callResult, []error) {
		var pushes []error
		for {
			select {
			case r := <-done:
				return r, pushes
			case d := <-dispatched:
				if !hold(d) {
					close(d.release)
					pushes = append(pushes, <-pushed)
				}
			default:
				if b.clock.PendingCount() > 0 {
					b.clock.AdvanceToNext()
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}

	var first dispatch
	r1, _ := drive(goCall(s, "first"), func(d dispatch) bool { first = d; return true })
	if !errors.Is(r1.err, xk.ErrTimeout) || first.body != "first" {
		t.Fatalf("call 1: %+v (handler saw %q), want a timeout with its handler parked", r1, first.body)
	}

	done2 := goCall(s, "second")
	for b.clock.PendingCount() == 0 {
		time.Sleep(time.Millisecond) // call 2 is waiting once it armed its timeout
	}
	close(first.release)
	if err := <-pushed; !errors.Is(err, amo.ErrStaleReply) {
		t.Fatalf("handler 1's late Push: %v, want amo.ErrStaleReply", err)
	}

	r2, pushes := drive(done2, func(dispatch) bool { return false })
	if r2.err != nil || r2.reply != "reply to second" {
		t.Fatalf("call 2 returned %+v, want its own reply", r2)
	}
	if len(pushes) != 1 || pushes[0] != nil {
		t.Fatalf("handler 2's pushes: %v, want one that succeeded", pushes)
	}
	st := b.sc.Stats()
	if st.RequestsServed != 2 || st.StaleReplies != 1 {
		t.Fatalf("served %d, stale replies %d; want 2 and 1", st.RequestsServed, st.StaleReplies)
	}
}

// An upper protocol that refuses the session CHANNEL opens for a request
// fails that request's call, and only that call: the server ends the
// execution, so the channel is not left waiting for a reply that will
// never come, and the next call on it is served.
func TestRefusedOpenFailsOnlyItsCall(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{MaxRetries: 2})
	app := xk.NewApp("srv", func(s xk.Session, m *msg.Msg) error {
		return s.Push(msg.New(m.Bytes()))
	})
	refused := false
	app.SessionDone = func(xk.Protocol, xk.Session, *xk.Participants) error {
		if !refused {
			refused = true
			return errors.New("no session for you")
		}
		return nil
	}
	if err := b.sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	s := open(t, b.cc, 0)
	drive := func(done <-chan callResult) callResult {
		for {
			select {
			case r := <-done:
				return r
			default:
				if b.clock.PendingCount() > 0 {
					b.clock.AdvanceToNext()
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	if r := drive(goCall(s, "first")); !errors.Is(r.err, xk.ErrTimeout) {
		t.Fatalf("call 1: %+v, want a timeout", r)
	}
	if r := drive(goCall(s, "second")); r.err != nil || r.reply != "second" {
		t.Fatalf("call 2: %+v, want its echo", r)
	}
	if st := b.sc.Stats(); st.RequestsServed != 2 || st.StaleReplies != 0 {
		t.Fatalf("served %d, stale replies %d; want 2 and 0", st.RequestsServed, st.StaleReplies)
	}
}
