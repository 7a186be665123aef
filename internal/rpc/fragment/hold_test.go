package fragment

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/xk"
)

// The multi-fragment path, seen from inside: the sender holds the one
// message it was pushed, in send order, and cuts every transmission of a
// fragment from it; the receiver collects into records it reuses, all of
// them chased by the session's one gap event. The bed is onefrag_test.go's.

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
// that lacks the header room goes out as exactly one empty fragment.
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

// liveSeqs lists the sequence numbers s holds, in hold order.
func liveSeqs(s *session) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seqs []uint32
	for _, sm := range s.sent[s.head:] {
		seqs = append(seqs, sm.seq)
	}
	return seqs
}

// resendAndCheck has host A answer a resend request for all of seq and
// checks the answer: the frames of firstTx again, byte for byte, or —
// with firstTx nil — nothing, counted as a request for an expired
// message.
func (bed *oneFragBed) resendAndCheck(t *testing.T, seq uint32, firstTx [][]byte) {
	t.Helper()
	llsA, err := bed.tapA.Open(bed.a, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := bed.a.Stats()
	bed.tapA.frames = nil
	if err := bed.a.Demux(llsA, resendRequest(seq, uint16(max(len(firstTx), 2)), 0)); err != nil {
		t.Fatal(err)
	}
	after := bed.a.Stats()
	if firstTx == nil {
		if after.ResendsExpired != before.ResendsExpired+1 || len(bed.tapA.frames) != 0 {
			t.Fatalf("seq %d: %d frames resent, expired %d → %d; want it counted as expired and nothing sent",
				seq, len(bed.tapA.frames), before.ResendsExpired, after.ResendsExpired)
		}
		return
	}
	if after.ResendsHonored != before.ResendsHonored+1 || len(bed.tapA.frames) != len(firstTx) {
		t.Fatalf("seq %d: %d frames resent, honoured %d → %d; want all %d of them again",
			seq, len(bed.tapA.frames), before.ResendsHonored, after.ResendsHonored, len(firstTx))
	}
	for i, fr := range bed.tapA.frames {
		if !bytes.Equal(fr, firstTx[i]) {
			t.Fatalf("seq %d: resent fragment %d differs from its first transmission", seq, i)
		}
	}
	bed.tapA.frames = nil
}

// The hold is in send order even when one-fragment sends, which number
// themselves without the lock and are never held, take the sequence
// numbers in between: seqs and expiries both increase along it, a resend
// request finds its message by search, and one for a one-fragment message
// finds nothing.
func TestHoldIsInSendOrder(t *testing.T) {
	bed := newOneFragBed(t)
	maxFrag := bed.a.cfg.MaxPacket - HeaderLen
	firstTx := map[uint32][][]byte{}
	for seq := uint32(1); seq <= 6; seq++ {
		n := 100
		if seq%2 == 1 {
			n = 2*maxFrag + 1 // three fragments, held
		}
		if err := bed.send.Push(withHeaders(n)); err != nil {
			t.Fatal(err)
		}
		if seq%2 == 1 {
			firstTx[seq] = bed.tapA.frames
		}
		bed.tapA.frames = nil
		bed.clock.Advance(time.Millisecond)
	}
	if got := liveSeqs(bed.send); !slices.Equal(got, []uint32{1, 3, 5}) {
		t.Fatalf("hold is %v, want the three-fragment messages 1, 3, 5 in send order", got)
	}
	for i := bed.send.head + 1; i < len(bed.send.sent); i++ {
		if !bed.send.sent[i-1].expires.Before(bed.send.sent[i].expires) {
			t.Fatalf("expiries out of order at %d: %v then %v", i, bed.send.sent[i-1].expires, bed.send.sent[i].expires)
		}
	}
	for seq := uint32(6); seq >= 1; seq-- {
		bed.resendAndCheck(t, seq, firstTx[seq])
	}
}

// The sweep pops expired messages off the head of the hold; a hold that
// fills up with its head past half way is compacted in place, not grown,
// and what it still holds is resent exactly as first sent.
func TestHoldCompactsInPlace(t *testing.T) {
	bed := newOneFragBed(t)
	hold := bed.a.cfg.SendHold
	firstTx := map[uint32][][]byte{}
	push := func() {
		t.Helper()
		if err := bed.send.Push(withHeaders(2 * bed.a.cfg.MaxPacket)); err != nil {
			t.Fatal(err)
		}
		firstTx[bed.send.nextSeq.Load()] = bed.tapA.frames
		bed.tapA.frames = nil
	}
	for i := 0; i < 4; i++ {
		push() // 1–4
	}
	bed.clock.Advance(hold - 100*time.Millisecond) // a sweep came and kept them all
	push()                                         // 5, which grows the slice
	for len(bed.send.sent) < cap(bed.send.sent) {
		push() // and on until it is full
	}
	full := len(bed.send.sent)
	bed.clock.Advance(200 * time.Millisecond) // 1–4 have expired and been swept
	if bed.send.head != 4 || full > 2*bed.send.head {
		t.Fatalf("after the sweep: head %d of %d; the test wants 1–4 popped off at least half the slice", bed.send.head, full)
	}
	push()
	if cap(bed.send.sent) != full || bed.send.head != 0 {
		t.Fatalf("the hold grew to %d (was %d), head %d: want it compacted in place", cap(bed.send.sent), full, bed.send.head)
	}
	want := []uint32{}
	for seq := uint32(5); seq <= uint32(full)+1; seq++ {
		want = append(want, seq)
	}
	if got := liveSeqs(bed.send); !slices.Equal(got, want) {
		t.Fatalf("hold is %v after compaction, want %v", got, want)
	}
	bed.resendAndCheck(t, 2, nil)
	bed.resendAndCheck(t, 6, firstTx[6])
	bed.resendAndCheck(t, uint32(full)+1, firstTx[uint32(full)+1])
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

// lastRequest decodes the last frame host B sent.
func (bed *oneFragBed) lastRequest(t *testing.T) header {
	t.Helper()
	if len(bed.tapB.frames) == 0 {
		t.Fatal("host B sent nothing")
	}
	return decodeHeader(bed.tapB.frames[len(bed.tapB.frames)-1])
}

// Two collections started 10 ms apart, each missing its second fragment,
// are chased by the one gap event at exactly their own dues — a gap
// timeout after the first fragment and after every request — and each is
// abandoned at its own due after GapRetries requests.
func TestOneGapEventChasesEachCollectionAtItsOwnDue(t *testing.T) {
	bed := newOneFragBed(t)
	gap, retries := bed.b.cfg.GapTimeout, bed.b.cfg.GapRetries
	const apart = 10 * time.Millisecond
	_, f1, _ := twoFragments(t, bed, 1)
	_, f2, _ := twoFragments(t, bed, 2)
	bed.receive(t, f1)
	bed.clock.Advance(apart)
	bed.receive(t, f2)
	rs := bed.recvSession(t)

	type due struct {
		at      time.Duration // after message 1's first fragment
		seq     uint32
		abandon bool
	}
	var dues []due
	for k := 1; k <= retries+1; k++ {
		at := time.Duration(k) * gap
		dues = append(dues, due{at, 1, k > retries}, due{at + apart, 2, k > retries})
	}
	now := apart
	var requests, abandoned int64
	for _, d := range dues {
		bed.clock.Advance(d.at - now - time.Millisecond)
		if st := bed.b.Stats(); st.ResendRequestsSent != requests || st.MessagesAbandoned != abandoned {
			t.Fatalf("seq %d acted before its due at %v: %d requests, %d abandoned", d.seq, d.at, st.ResendRequestsSent, st.MessagesAbandoned)
		}
		bed.clock.Advance(time.Millisecond)
		now = d.at
		if d.abandon {
			abandoned++
		} else {
			requests++
			if h := bed.lastRequest(t); h.typ != typeResend || h.seq != d.seq || h.fragMask != 1 || h.numFrags != 2 {
				t.Fatalf("at %v: last frame %+v, want a resend request for seq %d having fragment 0 of 2", d.at, h, d.seq)
			}
		}
		if st := bed.b.Stats(); st.ResendRequestsSent != requests || st.MessagesAbandoned != abandoned {
			t.Fatalf("at seq %d's due %v: %d requests, %d abandoned; want %d and %d", d.seq, d.at, st.ResendRequestsSent, st.MessagesAbandoned, requests, abandoned)
		}
		if n := bed.clock.PendingCount(); n > 2 {
			t.Fatalf("at %v: %d timers pending, want at most the gap event and the sender's sweep", d.at, n)
		}
	}
	if _, rcv, _ := held(rs); rcv != 0 || !rs.gapAt.IsZero() || rs.collecting.Load() != 0 {
		t.Fatalf("after both were abandoned: %d collections, gap event armed=%v", rcv, !rs.gapAt.IsZero())
	}
	if requests != 2*int64(retries) || len(bed.got) != 0 {
		t.Fatalf("%d requests, %d delivered; want %d and none", requests, len(bed.got), 2*retries)
	}
}

// However many collections are open, the receiver has one timer pending:
// the gap event. A completed message cancels nothing, so the event stays
// armed until it fires once, finds nothing due and goes idle.
func TestOneGapEventPerSession(t *testing.T) {
	bed := newOneFragBed(t)
	rest := map[byte][]byte{}
	var want [][]byte
	for i := byte(0); i < 12; i++ {
		payload, f0, f1 := twoFragments(t, bed, i)
		want = append(want, payload)
		rest[i] = f1
		bed.receive(t, f0)
		bed.clock.Advance(time.Millisecond)
		if _, rcv, _ := held(bed.recvSession(t)); rcv != int(i)+1 {
			t.Fatalf("%d collections open, want %d", rcv, i+1)
		}
		if n := bed.clock.PendingCount(); n != 2 {
			t.Fatalf("%d collections open: %d timers pending, want the gap event and the sender's sweep", i+1, n)
		}
	}
	for i := byte(0); i < 12; i++ {
		bed.receive(t, rest[i])
	}
	if len(bed.got) != len(want) {
		t.Fatalf("%d messages delivered, want %d", len(bed.got), len(want))
	}
	for i := range want {
		if !bytes.Equal(bed.got[i], want[i]) {
			t.Fatalf("message %d delivered wrong", i)
		}
	}
	if n := bed.clock.PendingCount(); n != 2 {
		t.Fatalf("after every message completed: %d timers pending, want the gap event still armed beside the sweep", n)
	}
	bed.clock.Advance(bed.b.cfg.GapTimeout)
	if n := bed.clock.PendingCount(); n != 1 || !bed.recvSession(t).gapAt.IsZero() {
		t.Fatalf("after the gap event fired on nothing: %d timers pending, want the sweep alone", n)
	}
	if st := bed.b.Stats(); st.ResendRequestsSent != 0 || st.MessagesAbandoned != 0 {
		t.Fatalf("counters %+v: the idle firing acted", st)
	}
}

// A completed message's record goes straight back to the free list while
// the gap event is still armed for it, and the next message collects in
// it with a due of its own. A message that starts at the instant the
// event fires — the handler committed and on its way to the lock — is
// left alone until its own due: the handler finds records by due, and
// holds none.
func TestRecordReusedWhileGapEventPending(t *testing.T) {
	fake := event.NewFake()
	clock := &hookClock{FakeClock: fake}
	bed := newOneFragBedOn(t, fake, clock)
	gap := bed.b.cfg.GapTimeout
	requests := func() int64 { return bed.b.Stats().ResendRequestsSent }

	one, f1a, f1b := twoFragments(t, bed, 1)
	bed.receive(t, f1a)
	rs := bed.recvSession(t)
	r1 := rs.rcv[1]
	bed.receive(t, f1b)
	if len(bed.got) != 1 || !bytes.Equal(bed.got[0], one) {
		t.Fatalf("message 1: delivered %d messages", len(bed.got))
	}
	if len(rs.free) != 1 || rs.free[0] != r1 || rs.gapAt.IsZero() {
		t.Fatalf("after message 1: free list %d, gap event armed=%v; want its record back while the event stays armed", len(rs.free), !rs.gapAt.IsZero())
	}

	// Message 2 takes the record a third of a gap in, before the event
	// fires for message 1's due.
	fake.Advance(gap / 3)
	two, f2a, f2b := twoFragments(t, bed, 2)
	bed.receive(t, f2a)
	if rs.rcv[2] != r1 || r1.retries != 0 {
		t.Fatalf("message 2 collects in %p with %d retries; want message 1's record %p, fresh", rs.rcv[2], r1.retries, r1)
	}

	// Message 3 starts inside the firing at message 1's due.
	_, f3a, _ := twoFragments(t, bed, 3)
	clock.onFire = func() { bed.receive(t, f3a) }
	fake.Advance(gap - gap/3)
	if clock.onFire != nil {
		t.Fatal("the gap event never fired")
	}
	if got := requests(); got != 0 {
		t.Fatalf("%d resend requests at message 1's due: a message not yet due was chased", got)
	}

	// Message 2 is chased at its own due, once, then completes.
	fake.Advance(gap/3 - time.Millisecond)
	if got := requests(); got != 0 {
		t.Fatalf("message 2 chased %v early", time.Millisecond)
	}
	fake.Advance(time.Millisecond)
	if got, h := requests(), bed.lastRequest(t); got != 1 || h.seq != 2 || h.fragMask != 1 {
		t.Fatalf("at message 2's due: %d requests, last %+v; want one, for seq 2 having fragment 0", got, h)
	}
	bed.receive(t, f2b)
	if len(bed.got) != 2 || !bytes.Equal(bed.got[1], two) {
		t.Fatalf("message 2: delivered %d messages", len(bed.got))
	}

	// Message 3 started at message 1's due, so its own is a gap later.
	fake.Advance(gap - gap/3 - time.Millisecond)
	if got := requests(); got != 1 {
		t.Fatalf("message 3 chased early: %d requests", got)
	}
	fake.Advance(time.Millisecond)
	if got, h := requests(), bed.lastRequest(t); got != 2 || h.seq != 3 {
		t.Fatalf("at message 3's due: %d requests, last %+v; want a second, for seq 3", got, h)
	}
	if n := fake.PendingCount(); n != 2 {
		t.Fatalf("%d timers pending, want the gap event and the sender's sweep", n)
	}
}

// Close drops the collections and the hold and leaves no timer pending:
// not the gap event, not the sweep. Nothing acts afterwards.
func TestCloseLeavesNoTimersPending(t *testing.T) {
	bed := newOneFragBed(t)
	_, f1a, f1b := twoFragments(t, bed, 1)
	_, f2a, _ := twoFragments(t, bed, 2)
	_, f3a, _ := twoFragments(t, bed, 3)
	bed.receive(t, f1a)
	bed.receive(t, f1b) // complete: its record goes to the free list
	bed.receive(t, f2a) // reuses it
	bed.receive(t, f3a) // a second collection, a fresh record
	rs := bed.recvSession(t)
	if _, rcv, _ := held(rs); rcv != 2 || len(rs.free) != 0 {
		t.Fatalf("%d collections, free list %d; want 2 and 0", rcv, len(rs.free))
	}
	if n := bed.clock.PendingCount(); n != 2 {
		t.Fatalf("%d timers pending, want the gap event and the sender's sweep", n)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rcv, _ := held(rs); rcv != 0 || rs.free != nil || rs.collecting.Load() != 0 || !rs.gapAt.IsZero() {
		t.Fatalf("after Close: %d collections, free list %v, gap event armed=%v", rcv, rs.free, !rs.gapAt.IsZero())
	}
	if n := bed.clock.PendingCount(); n != 1 {
		t.Fatalf("%d timers pending after the receiver's Close, want only the sender's sweep", n)
	}
	if err := bed.send.Close(); err != nil {
		t.Fatal(err)
	}
	if sent, _, sweeping := held(bed.send); sent != 0 || sweeping {
		t.Fatalf("after the sender's Close: holds %d, sweep armed=%v", sent, sweeping)
	}
	if n := bed.clock.PendingCount(); n != 0 {
		t.Fatalf("%d timers pending after both Closes, want 0", n)
	}
	before := [2]Stats{bed.a.Stats(), bed.b.Stats()}
	bed.clock.Advance(time.Minute)
	if after := [2]Stats{bed.a.Stats(), bed.b.Stats()}; after != before {
		t.Fatalf("a closed session still acted: %+v -> %+v", before, after)
	}
}
