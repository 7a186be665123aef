package fragment

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/xk"
)

// The multi-fragment path, seen from inside: the sender holds the one
// message it was pushed and cuts every transmission of a fragment from
// it; the receiver collects into a record it reuses, gap event and all.
// The bed is onefrag_test.go's.

// resendRequest is the frame host B sends host A to ask for the
// fragments of seq outside have.
func resendRequest(seq uint32, numFrags, have uint16) *msg.Msg {
	h := header{typ: typeResend, clntHost: oneFragB, srvrHost: oneFragA, protoNum: uint32(oneFragProto), seq: seq, numFrags: numFrags, fragMask: have}
	var hb [HeaderLen]byte
	h.encode(hb[:])
	return msg.New(hb[:])
}

// withHeaders is a message of n payload bytes with an upper layer's
// header pushed, so fragment 0 carries copied header bytes.
func withHeaders(n int) *msg.Msg {
	m := msg.New(msg.MakeData(n))
	m.MustPush([]byte("upper-layer-header"))
	return m
}

// Push derives the fragment count from the length before it builds
// anything: a message of too many fragments is refused having cost no
// fragment, no sequence number and no hold; and a zero-length message
// that lacks the header room — count 0 by the arithmetic — goes out as
// exactly one empty fragment.
func TestPushCountsBeforeBuilding(t *testing.T) {
	clock := event.NewFake()
	tap := &tapProto{}
	a, err := New("a/fragment", tap, oneFragA, Config{Clock: clock, MaxPacket: HeaderLen + 100})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := a.Open(xk.NewApp("src", nil), xk.NewParticipants(
		xk.NewParticipant(oneFragProto), xk.NewParticipant(oneFragB)))
	if err != nil {
		t.Fatal(err)
	}
	s := sess.(*session)

	payload := msg.MakeData(100*fragmask.Max + 1) // 17 fragments, well under MaxMsg
	if err := s.Push(msg.New(payload)); !errors.Is(err, xk.ErrMsgTooBig) {
		t.Fatalf("17-fragment message: err = %v, want ErrMsgTooBig", err)
	}
	if sent, _, sweeping := held(s); sent != 0 || sweeping || len(tap.frames) != 0 || s.nextSeq.Load() != 0 {
		t.Fatalf("refused message left held=%d sweeping=%v frames=%d nextSeq=%d", sent, sweeping, len(tap.frames), s.nextSeq.Load())
	}
	// The refusal builds its error and nothing per fragment.
	if got := testing.AllocsPerRun(20, func() { _ = s.Push(msg.New(payload)) }); got >= fragmask.Max {
		t.Fatalf("refusing a 17-fragment message cost %.0f allocations: fragments were built first", got)
	}

	if err := s.Push(msg.New(msg.MakeData(100 * fragmask.Max))); err != nil {
		t.Fatalf("16-fragment message: %v", err)
	}
	if len(tap.frames) != fragmask.Max {
		t.Fatalf("16-fragment message sent %d frames", len(tap.frames))
	}
	tap.frames = nil

	if err := s.Push(msg.NewWithLeader(nil, 0)); err != nil {
		t.Fatalf("empty message without header room: %v", err)
	}
	if len(tap.frames) != 1 {
		t.Fatalf("empty message sent %d frames, want exactly 1", len(tap.frames))
	}
	if h := decodeHeader(tap.frames[0]); len(tap.frames[0]) != HeaderLen || h.numFrags != 1 || h.fragMask != 1 || h.length != 0 {
		t.Fatalf("empty message's frame: %d bytes, header %+v", len(tap.frames[0]), h)
	}
	if st := a.Stats(); st.MessagesSent != 2 || st.FragmentsSent != fragmask.Max+1 {
		t.Fatalf("counters %+v", st)
	}
}

// An honoured resend cuts the requested fragments from the same held
// message the first transmission was cut from: the frames are the same
// bytes, fragment 0's copied upper-layer header included.
func TestResendIsByteIdenticalToFirstTransmission(t *testing.T) {
	bed := newOneFragBed(t)
	maxFrag := bed.a.cfg.MaxPacket - HeaderLen
	if err := bed.send.Push(withHeaders(4*maxFrag + 7)); err != nil {
		t.Fatal(err)
	}
	first := bed.tapA.frames
	bed.tapA.frames = nil
	if len(first) != 5 {
		t.Fatalf("first transmission: %d frames, want 5", len(first))
	}
	llsA, err := bed.tapA.Open(bed.a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, have := range []uint16{0b00101, 0, 0b11110} {
		if err := bed.a.Demux(llsA, resendRequest(1, 5, have)); err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i, fr := range first {
			if have&(1<<i) == 0 {
				want = append(want, fr)
			}
		}
		got := bed.tapA.frames
		bed.tapA.frames = nil
		if len(got) != len(want) {
			t.Fatalf("have=%#05b: resent %d frames, want %d", have, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("have=%#05b: resent frame %d differs from its first transmission", have, i)
			}
		}
	}
	if sent, _, _ := held(bed.send); sent != 1 {
		t.Fatalf("sender holds %d messages after the resends, want the 1", sent)
	}
	if st := bed.a.Stats(); st.ResendsHonored != 3 || st.ResendsExpired != 0 {
		t.Fatalf("counters %+v", st)
	}
}

// racingTap is a lower protocol for concurrent pushes. The first time it
// sees each fragment of a message it sets off, on another goroutine, a
// resend request for the whole message — so honoured resends are cutting
// fragments from the held message while the send loop is still cutting
// its own.
type racingTap struct {
	xk.BaseProtocol
	a *Protocol

	wg     sync.WaitGroup
	mu     sync.Mutex
	frames map[uint16][][]byte // by frag_mask
}

func (p *racingTap) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *racingTap) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &racingSession{p: p}
	s.InitSession(p, hlp)
	return s, nil
}

type racingSession struct {
	xk.BaseSession
	p *racingTap
}

func (s *racingSession) Push(m *msg.Msg) error {
	fr := m.Bytes()
	h := decodeHeader(fr)
	p := s.p
	p.mu.Lock()
	seen := len(p.frames[h.fragMask]) > 0
	p.frames[h.fragMask] = append(p.frames[h.fragMask], fr)
	p.mu.Unlock()
	if !seen {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = p.a.Demux(s, resendRequest(h.seq, h.numFrags, 0))
		}()
	}
	return nil
}

// Resend requests race the original send loop over the held message. A
// held message is only read, so under the race detector this is quiet,
// and every transmission of a fragment is the same bytes.
func TestResendsRaceTheSendLoop(t *testing.T) {
	tap := &racingTap{frames: map[uint16][][]byte{}}
	a, err := New("a/fragment", tap, oneFragA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tap.a = a
	s, err := a.Open(xk.NewApp("src", nil), xk.NewParticipants(
		xk.NewParticipant(oneFragProto), xk.NewParticipant(oneFragB)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const frags = 12
	if err := s.Push(withHeaders(16 * 1024)); err != nil {
		t.Fatal(err)
	}
	tap.wg.Wait()
	if got := a.Stats().ResendsHonored; got != frags {
		t.Fatalf("%d resend requests honoured, want one per fragment (%d)", got, frags)
	}
	if len(tap.frames) != frags {
		t.Fatalf("%d distinct fragments on the wire, want %d", len(tap.frames), frags)
	}
	for mask, sent := range tap.frames {
		if len(sent) != 1+frags {
			t.Errorf("fragment %#04x transmitted %d times, want 1 + %d resends", mask, len(sent), frags)
		}
		for _, fr := range sent[1:] {
			if !bytes.Equal(fr, sent[0]) {
				t.Fatalf("fragment %#04x: a resend differs from the first transmission", mask)
			}
		}
	}
}

// hookClock is the fake clock with a seam at the instant an event fires:
// after the firing is committed (Cancel can no longer prevent it) and
// before the handler runs, which is where a real timer's goroutine sits
// while it waits for the session lock.
type hookClock struct {
	*event.FakeClock
	onFire func() // runs once, at the next firing
}

func (c *hookClock) Schedule(d time.Duration, f func()) *event.Event {
	return c.FakeClock.Schedule(d, func() {
		if h := c.onFire; h != nil {
			c.onFire = nil
			h()
		}
		f()
	})
}

// twoFragments pushes a two-fragment message at host A and returns its
// payload and its two frames, undelivered.
func twoFragments(t *testing.T, bed *oneFragBed, stamp byte) (payload []byte, f0, f1 []byte) {
	t.Helper()
	payload = msg.MakeData(bed.a.cfg.MaxPacket)
	payload[0] = stamp
	if err := bed.send.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if len(bed.tapA.frames) != 2 {
		t.Fatalf("%d frames, want 2", len(bed.tapA.frames))
	}
	f0, f1 = bed.tapA.frames[0], bed.tapA.frames[1]
	bed.tapA.frames = nil
	return payload, f0, f1
}

func (bed *oneFragBed) receive(t *testing.T, frame []byte) {
	t.Helper()
	if err := bed.b.Demux(bed.llsB, msg.New(frame)); err != nil {
		t.Fatal(err)
	}
}

// A message completes at the instant its gap event fires: the handler is
// on its way, so the record must not serve the next message — the
// handler would chase that one the moment it started. And a record that
// is reused (the firing prevented) gives its next message a full gap
// timeout and a full set of retries, whatever its last one used up.
func TestRecordReuseAroundAFiringGapEvent(t *testing.T) {
	fake := event.NewFake()
	clock := &hookClock{FakeClock: fake}
	bed := newOneFragBedOn(t, fake, clock)
	gap := bed.b.cfg.GapTimeout
	requests := func() int64 { return bed.b.Stats().ResendRequestsSent }

	one, f1a, f1b := twoFragments(t, bed, 1)
	two, f2a, f2b := twoFragments(t, bed, 2)
	bed.receive(t, f1a)
	rs := bed.recvSession(t)
	r1 := rs.rcv[1]

	// Message 1 completes, and message 2 starts, inside the firing.
	clock.onFire = func() {
		bed.receive(t, f1b)
		bed.receive(t, f2a)
	}
	fake.Advance(gap)
	if clock.onFire != nil {
		t.Fatal("the gap event never fired")
	}
	if len(bed.got) != 1 || !bytes.Equal(bed.got[0], one) {
		t.Fatalf("message 1: delivered %d messages", len(bed.got))
	}
	if got := requests(); got != 0 {
		t.Fatalf("%d resend requests at the instant message 2 started: the in-flight handler chased it", got)
	}
	r2 := rs.rcv[2]
	if r2 == nil || r2 == r1 || len(rs.free) != 0 {
		t.Fatalf("message 2 collects in %p (message 1 used %p), free list %d: a record whose firing was not prevented was reused", r2, r1, len(rs.free))
	}

	// Message 2 is chased at its own deadline, once, then completes; its
	// record's firing is prevented, so the record is kept.
	fake.Advance(gap - time.Millisecond)
	if got := requests(); got != 0 {
		t.Fatalf("message 2 chased %v early", time.Millisecond)
	}
	fake.Advance(time.Millisecond)
	if got := requests(); got != 1 {
		t.Fatalf("%d resend requests at message 2's deadline, want 1", got)
	}
	if h := decodeHeader(bed.tapB.frames[len(bed.tapB.frames)-1]); h.typ != typeResend || h.seq != 2 || h.fragMask != 1 {
		t.Fatalf("the request is %+v, want a resend request for seq 2 having fragment 0", h)
	}
	armed := fake.PendingCount() // the gap event, and the sender's sweep
	bed.receive(t, f2b)
	if len(bed.got) != 2 || !bytes.Equal(bed.got[1], two) {
		t.Fatalf("message 2: delivered %d messages", len(bed.got))
	}
	if len(rs.free) != 1 || rs.free[0] != r2 || fake.PendingCount() != armed-1 {
		t.Fatalf("after message 2: free list %d, %d of %d timers still pending; want its record kept and its gap event disarmed", len(rs.free), fake.PendingCount(), armed)
	}

	// Message 3 takes the kept record half-way through what would have
	// been message 2's next gap: it gets a whole gap timeout of its own,
	// and all GapRetries chases before it is abandoned.
	fake.Advance(gap / 2)
	_, f3a, _ := twoFragments(t, bed, 3)
	bed.receive(t, f3a)
	if rs.rcv[3] != r2 {
		t.Fatal("message 3 did not reuse the kept record")
	}
	fake.Advance(gap - time.Millisecond)
	if got := requests(); got != 1 {
		t.Fatalf("message 3 chased early: %d requests", got)
	}
	fake.Advance(time.Millisecond)
	if got := requests(); got != 2 {
		t.Fatalf("%d requests at message 3's deadline, want 2", got)
	}
	for i := 0; i < 2*bed.b.cfg.GapRetries; i++ {
		fake.Advance(gap)
	}
	if got, st := requests(), bed.b.Stats(); got != 1+int64(bed.b.cfg.GapRetries) || st.MessagesAbandoned != 1 {
		t.Fatalf("message 3: %d requests in all, %d abandoned; want %d chases of its own, then abandoned", got, st.MessagesAbandoned, bed.b.cfg.GapRetries)
	}
	if len(bed.got) != 2 {
		t.Fatalf("%d messages delivered, want 2", len(bed.got))
	}
}

// Close cancels the gap events of collections in flight and drops the
// free list with its idle events.
func TestCloseCancelsCollectionsAndDropsFreeList(t *testing.T) {
	bed := newOneFragBed(t)
	_, f1a, f1b := twoFragments(t, bed, 1)
	_, f2a, _ := twoFragments(t, bed, 2)
	_, f3a, _ := twoFragments(t, bed, 3)
	_, f4a, f4b := twoFragments(t, bed, 4)
	bed.receive(t, f1a)
	bed.receive(t, f1b) // complete: its record goes to the free list
	rs := bed.recvSession(t)
	if len(rs.free) != 1 {
		t.Fatalf("free list %d after one completed message, want 1", len(rs.free))
	}
	bed.receive(t, f2a) // reuses it
	bed.receive(t, f3a) // a second collection, a fresh record
	bed.receive(t, f4a)
	bed.receive(t, f4b) // a third, completed: one idle record again
	if _, rcv, _ := held(rs); rcv != 2 || len(rs.free) != 1 {
		t.Fatalf("%d collections, free list %d; want 2 and 1", rcv, len(rs.free))
	}
	if n := bed.clock.PendingCount(); n != 3 {
		t.Fatalf("%d timers pending, want the 2 gap events and the sender's sweep", n)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rcv, _ := held(rs); rcv != 0 || rs.free != nil {
		t.Fatalf("after Close: %d collections, free list %v", rcv, rs.free)
	}
	if n := bed.clock.PendingCount(); n != 1 {
		t.Fatalf("%d timers pending after Close, want only the sender's sweep", n)
	}
	before := bed.b.Stats()
	bed.clock.Advance(time.Minute)
	if after := bed.b.Stats(); after != before {
		t.Fatalf("a cancelled gap event still acted: %+v -> %+v", before, after)
	}
}
