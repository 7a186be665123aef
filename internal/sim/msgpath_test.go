package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// The simulator carries a frame two ways: the fast path hands the
// receiver the sender's message, everything else flattens it and runs
// the byte code. Every wire-byte-equivalence test turns capture on and
// so sees only the second; production traffic takes the first. The
// property below is that the two are one wire.

const attrKey msg.AttrKey = 7

// randBytes returns n seeded random bytes.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// randomMsg builds a message the way protocols do, by a seeded random
// sequence of the message tool's operations, over every storage shape: a
// default, a small and a spilled leader, inline and spilled chains,
// fragments that alias their source, joins.
func randomMsg(rng *rand.Rand) *msg.Msg {
	var m *msg.Msg
	switch rng.Intn(4) {
	case 0:
		m = msg.New(randBytes(rng, rng.Intn(1200)))
	case 1:
		m = msg.NewWithLeader(randBytes(rng, rng.Intn(600)), rng.Intn(40))
	case 2:
		m = msg.NewWithLeader(randBytes(rng, rng.Intn(600)), msg.DefaultLeader+1+rng.Intn(100))
	default:
		m = msg.Empty()
	}
	for ops := rng.Intn(7); ops > 0; ops-- {
		switch rng.Intn(4) {
		case 0:
			_ = m.Push(randBytes(rng, 1+rng.Intn(30))) // a full leader refuses; the message stands
		case 1:
			m.Append(randBytes(rng, rng.Intn(200)))
		case 2:
			if m.Len() > 0 {
				off := rng.Intn(m.Len())
				f, err := m.Fragment(off, rng.Intn(m.Len()-off+1), msg.DefaultLeader)
				if err != nil {
					panic(err)
				}
				m = f
			}
		case 3:
			others := make([]*msg.Msg, 1+rng.Intn(3))
			for i := range others {
				others[i] = msg.New(randBytes(rng, rng.Intn(100)))
				_ = others[i].Push(randBytes(rng, rng.Intn(8)))
			}
			m.JoinAll(others)
		}
	}
	if rng.Intn(2) == 0 {
		m.SetAttr(attrKey, "the sender's")
	}
	return m
}

// sized pads or cuts a random message to exactly n bytes.
func sized(rng *rand.Rand, n int) *msg.Msg {
	m := randomMsg(rng)
	if m.Len() > n {
		if err := m.Truncate(n); err != nil {
			panic(err)
		}
	}
	m.Append(randBytes(rng, n-m.Len()))
	return m
}

// segment is one network with a sender and a message receiver.
type segment struct {
	net      *Network
	a        *NIC
	got      []*msg.Msg
	captured []FrameRecord
}

func newSegment(t *testing.T, capture bool) *segment {
	t.Helper()
	s := &segment{net: New(Config{})}
	var err error
	if s.a, err = s.net.Attach(addrA); err != nil {
		t.Fatal(err)
	}
	b, err := s.net.Attach(addrB)
	if err != nil {
		t.Fatal(err)
	}
	b.SetMsgReceiver(func(m *msg.Msg) { s.got = append(s.got, m) })
	if capture {
		s.net.SetCapture(func(r FrameRecord) { s.captured = append(s.captured, r) })
	}
	if s.net.fast.Load() == capture {
		t.Fatalf("capture=%v but fast path = %v", capture, s.net.fast.Load())
	}
	return s
}

func TestFastPathAndCapturedPathAreOneWire(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed17))
	fast, slow := newSegment(t, false), newSegment(t, true)
	max := fast.net.MTU() + EthHeaderBytes

	check := func(i int, m *msg.Msg) {
		t.Helper()
		want := m.Bytes()
		viaFast, viaSlow := m, m.Clone()
		errFast := fast.a.SendMsg(addrB, viaFast)
		errSlow := slow.a.SendMsg(addrB, viaSlow)
		if tooBig := len(want) > max; errors.Is(errFast, ErrFrameTooBig) != tooBig || errors.Is(errSlow, ErrFrameTooBig) != tooBig {
			t.Fatalf("message %d, %d bytes (max %d): fast path %v, captured path %v", i, len(want), max, errFast, errSlow)
		}
		if fs, ss := fast.net.Stats(), slow.net.Stats(); fs != ss {
			t.Fatalf("message %d: counters diverge\nfast     %+v\ncaptured %+v", i, fs, ss)
		}
		if len(want) > max {
			return
		}
		n := int(fast.net.Stats().FramesSent)
		if len(fast.got) != n || len(slow.got) != n || len(slow.captured) != n {
			t.Fatalf("message %d: %d sent, %d/%d delivered, %d captured", i, n, len(fast.got), len(slow.got), len(slow.captured))
		}
		gotFast, gotSlow, rec := fast.got[n-1], slow.got[n-1], slow.captured[n-1]
		if gotFast != viaFast {
			t.Fatalf("message %d: the fast path delivered a different object than it was sent", i)
		}
		if gotSlow == viaSlow {
			t.Fatalf("message %d: the captured path handed the sender's object over", i)
		}
		if !bytes.Equal(gotFast.Bytes(), want) || !bytes.Equal(rec.Frame, want) || !bytes.Equal(gotSlow.Bytes(), want) {
			t.Fatalf("message %d (%d bytes): delivered and captured bytes differ", i, len(want))
		}
		if rec.Len != len(want) || rec.Disposition != FrameDelivered {
			t.Fatalf("message %d: record %+v", i, rec)
		}
		for _, g := range []*msg.Msg{gotFast, gotSlow} {
			if _, ok := g.Attr(attrKey); ok {
				t.Fatalf("message %d: an attribute crossed the wire", i)
			}
		}
	}

	i := 0
	for ; i < 2000; i++ {
		check(i, randomMsg(rng))
	}
	// The MTU refuses at the same length on both paths, whatever shape
	// the message has.
	for _, n := range []int{max - 1, max, max + 1, max + 1000} {
		for k := 0; k < 50; k, i = k+1, i+1 {
			check(i, sized(rng, n))
		}
	}
}

// TestReceiverFormsConvert is the other half of the seam: a link has one
// receive slot, and a frame sent in the form the receiver does not take is
// converted — on both paths, to the same bytes.
func TestReceiverFormsConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed18))
	for _, capture := range []bool{false, true} {
		n := New(Config{})
		if capture {
			n.SetCapture(func(FrameRecord) {})
		}
		a, err := n.Attach(addrA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Attach(addrB)
		if err != nil {
			t.Fatal(err)
		}
		var gotMsg *msg.Msg
		var gotFrame []byte
		for i := 0; i < 200; i++ {
			m := randomMsg(rng)
			want := m.Bytes()
			if len(want) > n.MTU()+EthHeaderBytes {
				continue
			}

			b.SetReceiver(func(f []byte) { gotFrame = f })
			if err := a.SendMsg(addrB, m.Clone()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotFrame, want) {
				t.Fatalf("capture=%v: message %d flattened for a byte receiver differs", capture, i)
			}

			b.SetMsgReceiver(func(m *msg.Msg) { gotMsg = m })
			if err := a.Send(addrB, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotMsg.Bytes(), want) || gotMsg.Headroom() != msg.DefaultLeader {
				t.Fatalf("capture=%v: frame %d wrapped for a message receiver: %v, headroom %d", capture, i, gotMsg, gotMsg.Headroom())
			}
		}
		// The slot is one: uninstalling through either form empties it.
		b.SetReceiver(nil)
		gotMsg = nil
		if err := a.SendMsg(addrB, msg.New([]byte("nobody home"))); err != nil {
			t.Fatal(err)
		}
		if gotMsg != nil {
			t.Fatalf("capture=%v: delivered to an uninstalled receiver", capture)
		}
	}
}

// TestBroadcastMsgReachesEveryReceiverSeparately: a broadcast message is
// flattened, so no two receivers share one message object.
func TestBroadcastMsgReachesEveryReceiverSeparately(t *testing.T) {
	n := New(Config{})
	a, err := n.Attach(addrA)
	if err != nil {
		t.Fatal(err)
	}
	var got []*msg.Msg
	for _, addr := range []xk.EthAddr{addrB, addrC} {
		nic, err := n.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		nic.SetMsgReceiver(func(m *msg.Msg) { got = append(got, m) })
	}
	sent := msg.New([]byte("who-has"))
	if err := a.SendMsg(xk.BroadcastEth, sent); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] || got[0] == sent || got[1] == sent {
		t.Fatalf("broadcast delivered %v (sent %p)", got, sent)
	}
	for _, g := range got {
		if string(g.Bytes()) != "who-has" {
			t.Fatalf("broadcast mangled: %q", g.Bytes())
		}
	}
}
