package xk

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"xkernel/internal/msg"
)

func TestEthAddrString(t *testing.T) {
	a := EthAddr{0x02, 0x00, 0xAB, 0xCD, 0xEF, 0x01}
	if got := a.String(); got != "02:00:ab:cd:ef:01" {
		t.Fatalf("String = %q", got)
	}
	if !BroadcastEth.IsBroadcast() {
		t.Fatal("broadcast not recognized")
	}
	if a.IsBroadcast() {
		t.Fatal("unicast recognized as broadcast")
	}
}

// msg.Fragment moves the header bytes of a cut into the fragment's own
// leader only while LowerHeadroom stays free there. The message tool sits
// beneath this package and keeps its own copy of the figure; this holds
// the two equal: exactly LowerHeadroom left goes into the leader, one
// byte less is copied into a block instead.
func TestFragmentKeepsLowerHeadroom(t *testing.T) {
	for _, hl := range []int{msg.DefaultLeader - LowerHeadroom, msg.DefaultLeader - LowerHeadroom + 1} {
		m := msg.New([]byte("payload"))
		m.MustPush(make([]byte, hl))
		f, err := m.Fragment(0, m.Len(), msg.DefaultLeader)
		if err != nil {
			t.Fatal(err)
		}
		want := LowerHeadroom
		if hl > msg.DefaultLeader-LowerHeadroom {
			want = msg.DefaultLeader
		}
		if f.Headroom() != want {
			t.Errorf("%d header bytes cut: fragment headroom %d, want %d", hl, f.Headroom(), want)
		}
	}
}

func TestIPAddrString(t *testing.T) {
	if got := IP(10, 0, 0, 2).String(); got != "10.0.0.2" {
		t.Fatalf("String = %q", got)
	}
}

func TestIPAddrU32RoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		addr := IPAddr{a, b, c, d}
		return IPFromU32(addr.U32()) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameNet(t *testing.T) {
	mask := IPAddr{255, 255, 255, 0}
	if !IP(10, 0, 0, 1).SameNet(IP(10, 0, 0, 200), mask) {
		t.Fatal("same /24 not recognized")
	}
	if IP(10, 0, 0, 1).SameNet(IP(10, 0, 1, 1), mask) {
		t.Fatal("different /24 matched")
	}
}

func TestParticipantStack(t *testing.T) {
	p := NewParticipant(IP(1, 2, 3, 4), uint16(80))
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	top, ok := p.Peek()
	if !ok || top.(uint16) != 80 {
		t.Fatalf("Peek = %v", top)
	}
	c, ok := p.Pop()
	if !ok || c.(uint16) != 80 {
		t.Fatalf("Pop = %v", c)
	}
	c, ok = p.Pop()
	if !ok || c.(IPAddr) != IP(1, 2, 3, 4) {
		t.Fatalf("Pop = %v", c)
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("Pop on empty stack succeeded")
	}
}

func TestParticipantCloneIsIndependent(t *testing.T) {
	p := NewParticipant("a", "b")
	c := p.Clone()
	c.Pop()
	if p.Len() != 2 {
		t.Fatal("pop on clone affected original")
	}
	p.Push("c")
	if c.Len() != 1 {
		t.Fatal("push on original affected clone")
	}
}

func TestPopAddr(t *testing.T) {
	p := NewParticipant(IP(9, 9, 9, 9))
	a, err := PopAddr[IPAddr](&p, "host")
	if err != nil || a != IP(9, 9, 9, 9) {
		t.Fatalf("PopAddr = %v, %v", a, err)
	}
	if _, err := PopAddr[IPAddr](&p, "host"); !errors.Is(err, ErrBadParticipants) {
		t.Fatalf("empty stack: %v", err)
	}
	q := NewParticipant("not an address")
	if _, err := PopAddr[IPAddr](&q, "host"); !errors.Is(err, ErrBadParticipants) {
		t.Fatalf("wrong type: %v", err)
	}
}

func TestParticipantsClone(t *testing.T) {
	ps := NewParticipants(NewParticipant("l"), NewParticipant("r"))
	ps.Peers = append(ps.Peers, NewParticipant("p"))
	c := ps.Clone()
	c.Local.Pop()
	c.Remote.Pop()
	c.Peers[0].Pop()
	if ps.Local.Len() != 1 || ps.Remote.Len() != 1 || ps.Peers[0].Len() != 1 {
		t.Fatal("clone shares state with original")
	}
}

func TestLocalOnly(t *testing.T) {
	ps := LocalOnly(NewParticipant(uint16(7)))
	if ps.Local.Len() != 1 || ps.Remote.Len() != 0 {
		t.Fatal("LocalOnly shape wrong")
	}
}

// fakeProto exercises the BaseProtocol defaults.
type fakeProto struct{ BaseProtocol }

func TestBaseProtocolDefaults(t *testing.T) {
	p := &fakeProto{BaseProtocol{ProtoName: "fake"}}
	if p.Name() != "fake" {
		t.Fatalf("Name = %q", p.Name())
	}
	if _, err := p.Open(nil, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("Open: %v", err)
	}
	if err := p.OpenEnable(nil, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("OpenEnable: %v", err)
	}
	if err := p.Demux(nil, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("Demux: %v", err)
	}
	if _, err := p.Control(CtlGetMTU, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("Control: %v", err)
	}
}

// fakeSession exercises BaseSession bookkeeping.
type fakeSession struct{ BaseSession }

type ctlSession struct {
	fakeSession
	answer any
}

func (s *ctlSession) Control(op ControlOp, arg any) (any, error) {
	return s.answer, nil
}

func TestBaseSessionUpDown(t *testing.T) {
	p := &fakeProto{BaseProtocol{ProtoName: "p"}}
	up := &fakeProto{BaseProtocol{ProtoName: "up"}}
	lower := &fakeSession{}
	s := &fakeSession{}
	s.InitSession(p, up, lower)
	if s.Protocol() != p {
		t.Fatal("Protocol mismatch")
	}
	if s.Up() != up {
		t.Fatal("Up mismatch")
	}
	if s.Down(0) != lower {
		t.Fatal("Down mismatch")
	}
	if s.Down(1) != nil || s.Down(-1) != nil {
		t.Fatal("out-of-range Down should be nil")
	}
	up2 := &fakeProto{BaseProtocol{ProtoName: "up2"}}
	s.SetUp(up2)
	if s.Up() != up2 {
		t.Fatal("SetUp did not rebind")
	}
	s.SetDown(2, lower)
	if s.Down(2) != lower {
		t.Fatal("SetDown grow failed")
	}
}

func TestBaseSessionControlForwardsDown(t *testing.T) {
	p := &fakeProto{BaseProtocol{ProtoName: "p"}}
	lower := &ctlSession{answer: 1480}
	lower.InitSession(p, nil)
	s := &fakeSession{}
	s.InitSession(p, nil, lower)
	v, err := s.Control(CtlGetMTU, nil)
	if err != nil || v.(int) != 1480 {
		t.Fatalf("forwarded control = %v, %v", v, err)
	}
	orphan := &fakeSession{}
	orphan.InitSession(p, nil)
	if _, err := orphan.Control(CtlGetMTU, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("orphan control: %v", err)
	}
}

func TestBaseSessionClose(t *testing.T) {
	p := &fakeProto{BaseProtocol{ProtoName: "p"}}
	lower := &fakeSession{}
	lower.InitSession(p, nil)
	s := &fakeSession{}
	s.InitSession(p, nil, lower)
	if s.Closed() {
		t.Fatal("fresh session closed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.Closed() || !lower.Closed() {
		t.Fatal("close did not propagate")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

// TestBaseSessionZeroAndRange: a session never initialised, and any index
// outside what was installed, answer nil — through the atomically
// published slice as through the locked one before it.
func TestBaseSessionZeroAndRange(t *testing.T) {
	var z fakeSession
	if z.Up() != nil || z.Down(0) != nil || z.Closed() {
		t.Fatal("zero BaseSession should have no up, no lower, not closed")
	}
	if err := z.Close(); err != nil || !z.Closed() {
		t.Fatalf("closing a zero BaseSession: %v, closed=%v", err, z.Closed())
	}
	s, lower := &fakeSession{}, &fakeSession{}
	s.InitSession(nil, nil)
	s.SetDown(1, lower)
	for i, want := range map[int]Session{-1: nil, 0: nil, 1: lower, 2: nil} {
		if got := s.Down(i); got != want {
			t.Fatalf("Down(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestSetUnchangedPublishesNothing: CHANNEL's server re-installs its reply
// path on every request, so installing what is already there must cost no
// allocation (and no lock) — while a real change still takes effect.
func TestSetUnchangedPublishesNothing(t *testing.T) {
	up := &fakeProto{BaseProtocol{ProtoName: "up"}}
	a, b := &fakeSession{}, &fakeSession{}
	s := &fakeSession{}
	s.InitSession(nil, up, a)
	if n := testing.AllocsPerRun(100, func() { s.SetDown(0, a); s.SetUp(up) }); n != 0 {
		t.Fatalf("re-installing the same up/lower allocates %v per call", n)
	}
	before := s.lower.Load()
	s.SetDown(0, a)
	if s.lower.Load() != before {
		t.Fatal("SetDown of the installed session published a new slice")
	}
	s.SetDown(0, b)
	if s.Down(0) != b || (*before)[0] != a {
		t.Fatal("SetDown must publish a copy and leave the published slice alone")
	}
}

// TestBaseSessionPublicationRace: the per-message accessors race the
// bind-time writers (run under -race). A reader sees some value that was
// installed, never a torn one, and Closed never goes back to false.
func TestBaseSessionPublicationRace(t *testing.T) {
	ups := []Protocol{&fakeProto{BaseProtocol{ProtoName: "a"}}, &fakeProto{BaseProtocol{ProtoName: "b"}}}
	lowers := []Session{&fakeSession{}, &fakeSession{}}
	for _, l := range lowers {
		l.(*fakeSession).InitSession(nil, nil)
	}
	s := &fakeSession{}
	s.InitSession(nil, ups[0], lowers[0])

	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			closed := false
			for !stop.Load() {
				if up := s.Up(); up != ups[0] && up != ups[1] {
					t.Errorf("Up = %v, never installed", up)
					return
				}
				for i := 0; i < 3; i++ {
					if d := s.Down(i); d != nil && d != lowers[0] && d != lowers[1] {
						t.Errorf("Down(%d) = %v, never installed", i, d)
						return
					}
				}
				c := s.Closed()
				if closed && !c {
					t.Error("Closed went back to false")
					return
				}
				closed = c
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				s.SetUp(ups[(i+w)%2])
				s.SetDown((i+w)%3, lowers[i%2])
			}
		}(w)
	}
	writers.Wait()
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	stop.Store(true)
	readers.Wait()
	// Concurrent grows lost no slot: both writers covered every index.
	for i := 0; i < 3; i++ {
		if s.Down(i) == nil {
			t.Errorf("Down(%d) = nil after both writers installed it", i)
		}
	}
}

// TestMarkClosedExactlyOnce: of N racing closers exactly one does the
// closing, so a lower session is closed once.
func TestMarkClosedExactlyOnce(t *testing.T) {
	for round := 0; round < 200; round++ {
		s := &fakeSession{}
		s.InitSession(nil, nil)
		var won atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s.MarkClosed() {
					won.Add(1)
				}
			}()
		}
		wg.Wait()
		if won.Load() != 1 || !s.Closed() {
			t.Fatalf("round %d: MarkClosed reported true %d times, closed=%v", round, won.Load(), s.Closed())
		}
	}
}

func TestAppDeliver(t *testing.T) {
	var got *msg.Msg
	app := NewApp("app", func(s Session, m *msg.Msg) error {
		got = m
		return nil
	})
	m := msg.New([]byte("x"))
	if err := app.Demux(nil, m); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("message not delivered")
	}
}

func TestAppMaxMsgControl(t *testing.T) {
	app := NewApp("app", nil)
	app.MaxMsg = 1500
	v, err := app.Control(CtlHLPMaxMsg, nil)
	if err != nil || v.(int) != 1500 {
		t.Fatalf("CtlHLPMaxMsg = %v, %v", v, err)
	}
	if _, err := app.Control(CtlGetMTU, nil); !errors.Is(err, ErrOpNotSupported) {
		t.Fatalf("unexpected op: %v", err)
	}
}

func TestAppOpenDoneRecordsSessions(t *testing.T) {
	app := NewApp("app", nil)
	called := false
	app.SessionDone = func(llp Protocol, lls Session, ps *Participants) error {
		called = true
		return nil
	}
	s := &fakeSession{}
	if err := app.OpenDone(nil, s, nil); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("SessionDone not invoked")
	}
	if got := app.Sessions(); len(got) != 1 || got[0] != Session(s) {
		t.Fatalf("Sessions = %v", got)
	}
}

func TestAppWithoutDeliverErrors(t *testing.T) {
	app := NewApp("app", nil)
	if err := app.Demux(nil, msg.Empty()); err == nil {
		t.Fatal("Demux without Deliver should fail")
	}
}
