package eth

import (
	"encoding/binary"
	"errors"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// fakeWire is an in-memory Wire capturing sent frames and allowing frame
// injection.
type fakeWire struct {
	addr xk.EthAddr
	mtu  int
	sent []sentFrame
	recv func(*msg.Msg)
}

type sentFrame struct {
	dst   xk.EthAddr
	frame []byte
}

func newFakeWire() *fakeWire {
	return &fakeWire{addr: xk.EthAddr{2, 0, 0, 0, 0, 1}, mtu: 1500}
}

func (w *fakeWire) SendMsg(dst xk.EthAddr, m *msg.Msg) error {
	w.sent = append(w.sent, sentFrame{dst: dst, frame: m.Bytes()})
	return nil
}
func (w *fakeWire) Addr() xk.EthAddr                { return w.addr }
func (w *fakeWire) MTU() int                        { return w.mtu }
func (w *fakeWire) SetMsgReceiver(f func(*msg.Msg)) { w.recv = f }

// inject builds a frame from a remote host and delivers it.
func (w *fakeWire) inject(src xk.EthAddr, typ uint16, payload []byte) {
	f := make([]byte, HeaderLen+len(payload))
	copy(f[0:6], w.addr[:])
	copy(f[6:12], src[:])
	binary.BigEndian.PutUint16(f[12:14], typ)
	copy(f[14:], payload)
	w.recv(msg.New(f))
}

var peer = xk.EthAddr{2, 0, 0, 0, 0, 9}

func participants(typ uint16, remote xk.EthAddr) *xk.Participants {
	return xk.NewParticipants(
		xk.NewParticipant(Type(typ)),
		xk.NewParticipant(remote),
	)
}

func TestPushFramesMessage(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	app := xk.NewApp("app", nil)
	s, err := p.Open(app, participants(0x0800, peer))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(msg.New([]byte("payload"))); err != nil {
		t.Fatal(err)
	}
	if len(w.sent) != 1 {
		t.Fatalf("sent %d frames", len(w.sent))
	}
	f := w.sent[0]
	if f.dst != peer {
		t.Fatalf("dst = %s", f.dst)
	}
	var gotDst, gotSrc xk.EthAddr
	copy(gotDst[:], f.frame[0:6])
	copy(gotSrc[:], f.frame[6:12])
	if gotDst != peer || gotSrc != w.addr {
		t.Fatalf("header hosts %s -> %s", gotSrc, gotDst)
	}
	if typ := binary.BigEndian.Uint16(f.frame[12:14]); typ != 0x0800 {
		t.Fatalf("type = %#04x", typ)
	}
	if string(f.frame[14:]) != "payload" {
		t.Fatalf("payload = %q", f.frame[14:])
	}
}

func TestPushOversizedRejected(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	s, err := p.Open(xk.NewApp("app", nil), participants(0x0800, peer))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(msg.New(make([]byte, 1501))); !errors.Is(err, xk.ErrMsgTooBig) {
		t.Fatalf("got %v, want ErrMsgTooBig", err)
	}
}

func TestDemuxToActiveSession(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	var got *msg.Msg
	var from xk.Session
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
		got, from = m, s
		return nil
	})
	if _, err := p.Open(app, participants(0x0800, peer)); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0800, []byte("up"))
	if got == nil || string(got.Bytes()) != "up" {
		t.Fatalf("delivered %v", got)
	}
	// The frame's source address is the delivering session's peer.
	if src, err := from.Control(xk.CtlGetPeerHost, nil); err != nil || src.(xk.EthAddr) != peer {
		t.Fatalf("delivering session's peer host = %v, %v; want %v", src, err, peer)
	}
}

func TestDemuxPassiveOpenViaEnable(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	var done, delivered bool
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
		delivered = true
		// Reply through the passively created session.
		return s.Push(msg.New([]byte("reply")))
	})
	app.SessionDone = func(llp xk.Protocol, lls xk.Session, ps *xk.Participants) error {
		done = true
		return nil
	}
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(Type(0x0888)))); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0888, []byte("first"))
	if !done || !delivered {
		t.Fatalf("done=%v delivered=%v", done, delivered)
	}
	if len(w.sent) != 1 || w.sent[0].dst != peer {
		t.Fatal("reply not sent back to the source")
	}
}

func TestDemuxUnknownTypeDropped(t *testing.T) {
	w := newFakeWire()
	New("eth", w)
	w.inject(peer, 0x9999, []byte("x")) // logged and dropped, no panic
}

func TestBroadcastSessionHearsAll(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	var n int
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
		n++
		return nil
	})
	if _, err := p.Open(app, participants(0x0806, xk.BroadcastEth)); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0806, []byte("req"))
	w.inject(xk.EthAddr{2, 0, 0, 0, 0, 8}, 0x0806, []byte("req2"))
	if n != 2 {
		t.Fatalf("broadcast session saw %d frames, want 2", n)
	}
}

func TestExactMatchBeatsBroadcastSession(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	var viaBcast, viaExact int
	bcastApp := xk.NewApp("b", func(s xk.Session, m *msg.Msg) error { viaBcast++; return nil })
	exactApp := xk.NewApp("e", func(s xk.Session, m *msg.Msg) error { viaExact++; return nil })
	if _, err := p.Open(bcastApp, participants(0x0806, xk.BroadcastEth)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(exactApp, participants(0x0806, peer)); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0806, nil)
	if viaExact != 1 || viaBcast != 0 {
		t.Fatalf("exact=%d bcast=%d", viaExact, viaBcast)
	}
}

func TestSessionCaching(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	app := xk.NewApp("app", nil)
	s1, err := p.Open(app, participants(0x0800, peer))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Open(app, participants(0x0800, peer))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second open did not return the cached session")
	}
	// Two references: the first close must not unbind.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	app.Deliver = func(s xk.Session, m *msg.Msg) error { got++; return nil }
	w.inject(peer, 0x0800, nil)
	if got != 1 {
		t.Fatal("session gone after closing one of two references")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0800, nil)
	if got != 1 {
		t.Fatal("session still bound after final close")
	}
}

func TestControls(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	v, err := p.Control(xk.CtlGetMyHost, nil)
	if err != nil || v.(xk.EthAddr) != w.addr {
		t.Fatalf("CtlGetMyHost = %v, %v", v, err)
	}
	v, err = p.Control(xk.CtlGetMTU, nil)
	if err != nil || v.(int) != 1500 {
		t.Fatalf("CtlGetMTU = %v, %v", v, err)
	}
	s, err := p.Open(xk.NewApp("a", nil), participants(0x0800, peer))
	if err != nil {
		t.Fatal(err)
	}
	v, err = s.Control(xk.CtlGetPeerHost, nil)
	if err != nil || v.(xk.EthAddr) != peer {
		t.Fatalf("session CtlGetPeerHost = %v, %v", v, err)
	}
	v, err = s.Control(xk.CtlGetPeerProto, nil)
	if err != nil || v.(uint32) != 0x0800 {
		t.Fatalf("session CtlGetPeerProto = %v, %v", v, err)
	}
}

func TestOpenDisable(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	var n int
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error { n++; return nil })
	lp := xk.LocalOnly(xk.NewParticipant(Type(0x0777)))
	if err := p.OpenEnable(app, lp); err != nil {
		t.Fatal(err)
	}
	if err := p.OpenDisable(app, xk.LocalOnly(xk.NewParticipant(Type(0x0777)))); err != nil {
		t.Fatal(err)
	}
	w.inject(peer, 0x0777, nil)
	if n != 0 {
		t.Fatal("disabled type still delivered")
	}
}

func TestShortFrameRejected(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	m := msg.New([]byte{1, 2, 3})
	if err := p.Demux(nil, m); !errors.Is(err, xk.ErrBadHeader) {
		t.Fatalf("got %v, want ErrBadHeader", err)
	}
}

func TestBadParticipants(t *testing.T) {
	w := newFakeWire()
	p := New("eth", w)
	app := xk.NewApp("app", nil)
	_, err := p.Open(app, xk.NewParticipants(xk.NewParticipant("wrong"), xk.NewParticipant(peer)))
	if !errors.Is(err, xk.ErrBadParticipants) {
		t.Fatalf("got %v, want ErrBadParticipants", err)
	}
	_, err = p.Open(app, xk.NewParticipants(xk.NewParticipant(Type(1)), xk.NewParticipant("no mac")))
	if !errors.Is(err, xk.ErrBadParticipants) {
		t.Fatalf("got %v, want ErrBadParticipants", err)
	}
}
