package fragment

import (
	"bytes"
	"errors"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/proto/ip"
	"xkernel/internal/xk"
)

// The one-fragment path: a message that fits a packet is framed in place
// and sent as it is, held by nobody; anything longer takes the general
// path. These tests look at the session's own maps, so they live inside
// the package, over a lower protocol that just records what it is pushed.

const oneFragProto ip.ProtoNum = 231

var (
	oneFragA = xk.IP(10, 0, 0, 1)
	oneFragB = xk.IP(10, 0, 0, 2)
)

// tapProto stands in for VIP: its sessions record every frame pushed.
type tapProto struct {
	xk.BaseProtocol
	frames [][]byte
}

func (p *tapProto) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *tapProto) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &tapSession{p: p}
	s.InitSession(p, hlp)
	return s, nil
}

type tapSession struct {
	xk.BaseSession
	p *tapProto
}

func (s *tapSession) Push(m *msg.Msg) error {
	s.p.frames = append(s.p.frames, m.Bytes())
	return nil
}

// oneFragBed is a sending FRAGMENT (host A) and a receiving one (host B)
// joined by hand: frames the sender pushes are fed to the receiver's
// Demux by deliver.
type oneFragBed struct {
	clock      *event.FakeClock
	tapA, tapB *tapProto
	a, b       *Protocol
	send       *session
	llsB       xk.Session
	got        [][]byte
}

func newOneFragBed(t *testing.T) *oneFragBed {
	t.Helper()
	clock := event.NewFake()
	return newOneFragBedOn(t, clock, clock)
}

// newOneFragBedOn is newOneFragBed with the receiver on clockB, which
// must be clock itself or a wrapper around it.
func newOneFragBedOn(t *testing.T, clock *event.FakeClock, clockB event.Clock) *oneFragBed {
	t.Helper()
	bed := &oneFragBed{clock: clock, tapA: &tapProto{}, tapB: &tapProto{}}
	var err error
	if bed.a, err = New("a/fragment", bed.tapA, oneFragA, Config{Clock: clock}); err != nil {
		t.Fatal(err)
	}
	if bed.b, err = New("b/fragment", bed.tapB, oneFragB, Config{Clock: clockB}); err != nil {
		t.Fatal(err)
	}
	app := xk.NewApp("sink", func(s xk.Session, m *msg.Msg) error {
		bed.got = append(bed.got, m.Bytes())
		return nil
	})
	if err := bed.b.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(oneFragProto))); err != nil {
		t.Fatal(err)
	}
	s, err := bed.a.Open(xk.NewApp("src", nil), xk.NewParticipants(
		xk.NewParticipant(oneFragProto), xk.NewParticipant(oneFragB)))
	if err != nil {
		t.Fatal(err)
	}
	bed.send = s.(*session)
	if bed.llsB, err = bed.tapB.Open(bed.b, nil); err != nil {
		t.Fatal(err)
	}
	return bed
}

// deliver moves every frame host A has sent so far to host B.
func (bed *oneFragBed) deliver(t *testing.T) {
	t.Helper()
	for _, fr := range bed.tapA.frames {
		if err := bed.b.Demux(bed.llsB, msg.New(fr)); err != nil {
			t.Fatal(err)
		}
	}
	bed.tapA.frames = nil
}

// recvSession is host B's session for traffic from host A.
func (bed *oneFragBed) recvSession(t *testing.T) *session {
	t.Helper()
	var kb pmap.Key
	v, ok := bed.b.active.Resolve(key(&kb, oneFragProto, oneFragA))
	if !ok {
		t.Fatal("receiver has no session for the sender")
	}
	return v.(*session)
}

func held(s *session) (sent, rcv int, sweeping bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sent) - s.head, len(s.rcv), s.sweeping
}

func TestOneFragmentMessageIsHeldByNobody(t *testing.T) {
	bed := newOneFragBed(t)
	payload := msg.MakeData(500)
	if err := bed.send.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if sent, _, sweeping := held(bed.send); sent != 0 || sweeping {
		t.Fatalf("sender holds %d messages, sweep armed=%v; want none", sent, sweeping)
	}
	if n := bed.clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending after a one-fragment push, want 0", n)
	}
	if len(bed.tapA.frames) != 1 {
		t.Fatalf("%d frames sent, want 1", len(bed.tapA.frames))
	}
	bed.deliver(t)
	if len(bed.got) != 1 || !bytes.Equal(bed.got[0], payload) {
		t.Fatalf("delivered %d messages", len(bed.got))
	}
	if _, rcv, _ := held(bed.recvSession(t)); rcv != 0 {
		t.Fatalf("receiver's collection map holds %d entries, want 0", rcv)
	}
	if n := bed.clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending after delivery, want 0 (no gap timer for one fragment)", n)
	}
	sa, sb := bed.a.Stats(), bed.b.Stats()
	if sa.MessagesSent != 1 || sa.FragmentsSent != 1 || sb.FragmentsReceived != 1 || sb.MessagesDelivered != 1 {
		t.Fatalf("counters: sender %+v receiver %+v", sa, sb)
	}

	// A resend request for it — which no correct receiver sends — is
	// answered like one for an expired message.
	llsA, err := bed.tapA.Open(bed.a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bed.a.Demux(llsA, resendRequest(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if st := bed.a.Stats(); st.ResendsExpired != 1 || st.ResendsHonored != 0 {
		t.Fatalf("forged resend request: expired=%d honored=%d, want 1/0", st.ResendsExpired, st.ResendsHonored)
	}
	if len(bed.tapA.frames) != 0 {
		t.Fatalf("forged resend request made the sender transmit %d frames", len(bed.tapA.frames))
	}
}

// The choice between the two paths is the length test Push already makes:
// exactly one packet's worth goes in place, one byte more is fragmented,
// held and swept — and both arrive byte for byte.
func TestOneFragmentBoundary(t *testing.T) {
	bed := newOneFragBed(t)
	maxFrag := bed.a.cfg.MaxPacket - HeaderLen

	fits := msg.MakeData(maxFrag)
	if err := bed.send.Push(msg.New(fits)); err != nil {
		t.Fatal(err)
	}
	if sent, _, sweeping := held(bed.send); sent != 0 || sweeping || len(bed.tapA.frames) != 1 {
		t.Fatalf("%d-byte message: held=%d sweep=%v frames=%d, want 0/false/1", maxFrag, sent, sweeping, len(bed.tapA.frames))
	}
	if n := len(bed.tapA.frames[0]); n != bed.a.cfg.MaxPacket {
		t.Fatalf("frame is %d bytes, want MaxPacket=%d", n, bed.a.cfg.MaxPacket)
	}
	bed.deliver(t)

	over := msg.MakeData(maxFrag + 1)
	if err := bed.send.Push(msg.New(over)); err != nil {
		t.Fatal(err)
	}
	if sent, _, sweeping := held(bed.send); sent != 1 || !sweeping || len(bed.tapA.frames) != 2 {
		t.Fatalf("%d-byte message: held=%d sweep=%v frames=%d, want 1/true/2", maxFrag+1, sent, sweeping, len(bed.tapA.frames))
	}
	bed.deliver(t)

	if len(bed.got) != 2 || !bytes.Equal(bed.got[0], fits) || !bytes.Equal(bed.got[1], over) {
		t.Fatalf("delivered %d messages; payloads differ from what was sent", len(bed.got))
	}
	if _, rcv, _ := held(bed.recvSession(t)); rcv != 0 {
		t.Fatalf("receiver's collection map holds %d entries after both completed", rcv)
	}
	if st := bed.b.Stats(); st.MessagesDelivered != 2 || st.FragmentsReceived != 3 {
		t.Fatalf("receiver counters %+v", st)
	}
}

// A message whose leader has no room for FRAGMENT's header (and the
// lower layers') cannot be framed in place; it is cut once into a fresh
// message that has the room, not pushed until something panics. It is
// still one fragment, so it is held by nobody, like one framed in place.
func TestOneFragmentNeedsHeadroom(t *testing.T) {
	bed := newOneFragBed(t)
	payload := msg.MakeData(300)
	for _, leader := range []int{0, HeaderLen - 1, HeaderLen, HeaderLen + xk.LowerHeadroom - 1} {
		bed.got = nil
		if err := bed.send.Push(msg.NewWithLeader(payload, leader)); err != nil {
			t.Fatalf("leader %d: %v", leader, err)
		}
		bed.deliver(t)
		if len(bed.got) != 1 || !bytes.Equal(bed.got[0], payload) {
			t.Fatalf("leader %d: delivered %d messages", leader, len(bed.got))
		}
	}
	if sent, _, sweeping := held(bed.send); sent != 0 || sweeping {
		t.Fatalf("cut one-fragment messages: held=%d sweep armed=%v, want 0/false", sent, sweeping)
	}
	if n := bed.clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending, want 0", n)
	}
	// A resend request for one of them finds nothing, as for an expired
	// message.
	bed.resendAndCheck(t, 2, nil)
	// With room for both, the same message goes in place.
	if err := bed.send.Push(msg.NewWithLeader(payload, HeaderLen+xk.LowerHeadroom)); err != nil {
		t.Fatal(err)
	}
	if sent, _, sweeping := held(bed.send); sent != 0 || sweeping {
		t.Fatalf("in-place push was held: %d, sweep armed=%v", sent, sweeping)
	}
}

// A frame that claims to be a whole message under a sequence number the
// receiver is already collecting contradicts the collection: it is
// refused as a bad header, as it was before one-fragment frames skipped
// the collection map, not delivered upward.
func TestOneFragmentFrameContradictingCollection(t *testing.T) {
	bed := newOneFragBed(t)
	maxFrag := bed.a.cfg.MaxPacket - HeaderLen
	if err := bed.send.Push(msg.New(msg.MakeData(maxFrag + 1))); err != nil {
		t.Fatal(err)
	}
	first := bed.tapA.frames[0]
	bed.tapA.frames = nil
	if err := bed.b.Demux(bed.llsB, msg.New(first)); err != nil {
		t.Fatal(err)
	}
	if _, rcv, _ := held(bed.recvSession(t)); rcv != 1 {
		t.Fatalf("receiver collects %d messages after the first of two fragments, want 1", rcv)
	}

	h := decodeHeader(first)
	h.numFrags, h.fragMask = 1, 1
	var hb [HeaderLen]byte
	h.encode(hb[:])
	forged := msg.New([]byte("not the message"))
	forged.MustPush(hb[:])
	if err := bed.b.Demux(bed.llsB, forged); !errors.Is(err, xk.ErrBadHeader) {
		t.Fatalf("forged one-fragment frame for a sequence being collected: err = %v, want ErrBadHeader", err)
	}
	if len(bed.got) != 0 {
		t.Fatalf("forged frame was delivered upward")
	}
	if _, rcv, _ := held(bed.recvSession(t)); rcv != 1 {
		t.Fatalf("collection disturbed: %d entries, want 1", rcv)
	}
}

// The expiry sweep is one event per session, re-armed when a hold follows
// an idle period: nothing is built per sweep, and nothing stays pending
// once the holds have expired or the session has closed.
func TestSweepIsOneReArmedEvent(t *testing.T) {
	bed := newOneFragBed(t)
	big := msg.MakeData(2 * bed.a.cfg.MaxPacket)
	push := func() {
		t.Helper()
		if err := bed.send.Push(msg.New(big)); err != nil {
			t.Fatal(err)
		}
		if sent, _, sweeping := held(bed.send); sent == 0 || !sweeping {
			t.Fatalf("after a fragmented push: held=%d sweeping=%v", sent, sweeping)
		}
	}
	expire := func() {
		t.Helper()
		bed.clock.Advance(2 * bed.a.cfg.SendHold)
		if sent, _, sweeping := held(bed.send); sent != 0 || sweeping {
			t.Fatalf("after the hold window: held=%d sweeping=%v, want 0/false", sent, sweeping)
		}
		if n := bed.clock.PendingCount(); n != 0 {
			t.Fatalf("%d timers pending with nothing held", n)
		}
	}
	push()
	ev := bed.send.sweep
	expire()
	push()
	push() // a second hold while armed arms nothing more
	if bed.send.sweep != ev {
		t.Fatal("the second hold built a new sweep event")
	}
	if n := bed.clock.PendingCount(); n != 1 {
		t.Fatalf("%d timers pending, want the one sweep", n)
	}
	expire()

	push()
	if err := bed.send.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bed.clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending after Close", n)
	}
}
