package channel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/xk"
)

// A channel's call state — the at-most-once core's call slot, with its
// reply channel and timeout — is set up once and reused by every call
// (the slot's own rules are amo's TestClient*). These tests drive a
// client Session over
// a scripted lower session and look at what one call can leave behind
// for the next.

var callPeer = xk.IP(10, 0, 0, 2)

// scriptProto stands in for FRAGMENT below the client CHANNEL; its one
// session hands every pushed request to the script.
type scriptProto struct {
	xk.BaseProtocol
	sess *scriptSession
}

func (p *scriptProto) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *scriptProto) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	p.sess.InitSession(p, hlp)
	return p.sess, nil
}

type scriptSession struct {
	xk.BaseSession
	// onPush sees each request's decoded header and payload.
	onPush func(h header, payload []byte)
}

func (s *scriptSession) Push(m *msg.Msg) error {
	hb, err := m.Pop(HeaderLen)
	if err != nil {
		return err
	}
	s.onPush(decodeHeader(hb), m.Bytes())
	return nil
}

func (s *scriptSession) Control(op xk.ControlOp, arg any) (any, error) {
	if op == xk.CtlGetPeerHost {
		return callPeer, nil
	}
	return nil, xk.ErrOpNotSupported
}

func newScriptedChannel(t *testing.T, clock event.Clock) (*Protocol, *Session, *scriptSession) {
	t.Helper()
	lower := &scriptProto{sess: &scriptSession{}}
	p, err := New("client/channel", lower, Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Open(xk.NewApp("app", nil), xk.NewParticipants(
		xk.NewParticipant(ip.ProtoNum(230), ID(3)),
		xk.NewParticipant(callPeer),
	))
	if err != nil {
		t.Fatal(err)
	}
	return p, s.(*Session), lower.sess
}

// replyTo frames a reply to req carrying payload.
func replyTo(req header, payload string) *msg.Msg {
	h := header{flags: flagReply, channel: req.channel, protoNum: req.protoNum, seq: req.seq, bootID: 7}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	m := msg.New([]byte(payload))
	m.MustPush(hb[:])
	return m
}

// A duplicate of the previous call's reply that lands after that call
// took its own sits in the channel's reply slot. The next call must not
// return it — and must not find the slot full when its own reply comes.
func TestStaleReplyDoesNotSatisfyNextCall(t *testing.T) {
	p, s, lower := newScriptedChannel(t, event.NewFake())
	lower.onPush = func(h header, payload []byte) {
		if err := p.Demux(lower, replyTo(h, "reply to "+string(payload))); err != nil {
			t.Error(err)
		}
	}
	r, err := s.Call(msg.New([]byte("one")))
	if err != nil || string(r.Bytes()) != "reply to one" {
		t.Fatalf("first call: %v, %v", r, err)
	}
	// Rebuild the window by hand: a call holds the channel and has taken
	// its reply, and a duplicate of that reply arrives.
	seq, _ := s.slot.Start(1, time.Second, 0, retry.Step{})
	dup := header{flags: flagReply, channel: s.id, protoNum: uint32(s.proto), seq: seq, bootID: 7}
	if err := p.clientReceive(dup, callPeer, msg.New([]byte("stale"))); err != nil {
		t.Fatal(err)
	}
	if r, replied, _ := s.slot.Wait(); !replied || string(r.M.Bytes()) != "stale" {
		t.Fatal("the duplicate did not land in the reply slot; the test builds nothing")
	}
	if err := p.clientReceive(dup, callPeer, msg.New([]byte("stale"))); err != nil {
		t.Fatal(err)
	}
	s.slot.Finish()
	r, err = s.Call(msg.New([]byte("two")))
	if err != nil || string(r.Bytes()) != "reply to two" {
		t.Fatalf("second call returned %q, %v; want its own reply", r.Bytes(), err)
	}
	if got := p.Stats().Retransmits; got != 0 {
		t.Fatalf("%d retransmissions on a lossless exchange", got)
	}
}

// The one timer is re-armed by every attempt of every call: each lost
// request costs exactly one retransmission at exactly the timeout, a
// call that is answered leaves nothing pending, and no firing of one
// call's timer shows up in the next.
func TestTimerRearmedAcrossCalls(t *testing.T) {
	clock := event.NewFake()
	p, s, lower := newScriptedChannel(t, clock)
	pushed := make(chan int, 4) // at most two transmissions per call below
	lower.onPush = func(h header, payload []byte) {
		retransmission := h.flags&flagPleaseAck != 0
		if payload[0] == 'L' && !retransmission {
			pushed <- 0 // "lost": no answer to the first transmission
			return
		}
		if err := p.Demux(lower, replyTo(h, "reply to "+string(payload))); err != nil {
			t.Error(err)
		}
		pushed <- 1
	}
	timeout, _ := s.TimeoutFor(1)
	call := func(payload string, wantRetransmit bool) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			r, err := s.Call(msg.New([]byte(payload)))
			if err == nil && string(r.Bytes()) != "reply to "+payload {
				err = fmt.Errorf("call %q returned %q", payload, r.Bytes())
			}
			done <- err
		}()
		if wantRetransmit {
			if <-pushed != 0 {
				t.Fatal("first transmission was answered")
			}
			for clock.PendingCount() == 0 {
				runtime.Gosched() // Call arms the timer right after the push returns
			}
			clock.Advance(timeout - time.Nanosecond)
			select {
			case <-pushed:
				t.Fatal("retransmitted before the timeout")
			default:
			}
			clock.Advance(time.Nanosecond)
		}
		if <-pushed != 1 {
			t.Fatal("transmission went unanswered")
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if n := clock.PendingCount(); n != 0 {
			t.Fatalf("%d timers left pending after the call returned", n)
		}
	}
	call("Lost once", true)
	call("answered at once", false)
	call("Lost again", true)
	call("answered", false)
	call("Lost a third time", true)
	if got := p.Stats().Retransmits; got != 3 {
		t.Fatalf("Retransmits = %d, want exactly 3 (one per lost request)", got)
	}
	// Nothing the lossy calls left behind reaches a clean one: it gets
	// its own reply, with no retransmission and no timer left pending.
	call("clean", false)
	if got := p.Stats().Retransmits; got != 3 {
		t.Fatalf("Retransmits = %d after a clean call, want still 3", got)
	}
}
