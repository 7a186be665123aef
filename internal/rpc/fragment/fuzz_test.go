package fragment_test

// FuzzFragmentPop feeds arbitrary byte sequences through FRAGMENT's
// Demux: corrupted fragment headers, impossible masks, resend requests
// for messages never sent — none may panic or read outside the frame.
// Inputs carry a sequence of length-prefixed frames so the fuzzer can
// compose multi-fragment reassemblies, duplicates, and interleavings;
// the seed corpus is real encoded FRAGMENT_HDR frames.

import (
	"encoding/binary"
	"errors"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/xk"
)

const fuzzProto ip.ProtoNum = 240

var (
	fuzzLocal = xk.IP(10, 0, 0, 1)
	fuzzPeer  = xk.IP(10, 0, 0, 9)
)

// sinkProto stands in for VIP below FRAGMENT; sinkSession swallows
// whatever the session pushes back down (resend requests, honored
// resends).
type sinkProto struct{ xk.BaseProtocol }

func (p *sinkProto) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *sinkProto) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &sinkSession{}
	s.InitSession(p, hlp)
	return s, nil
}

type sinkSession struct{ xk.BaseSession }

func (s *sinkSession) Push(*msg.Msg) error { return nil }

// frFrame encodes one FRAGMENT_HDR (the layout decodeHeader expects)
// followed by payload.
func frFrame(typ uint8, clnt, srvr xk.IPAddr, proto, seq uint32, numFrags, fragMask, length uint16, payload []byte) []byte {
	b := make([]byte, fragment.HeaderLen+len(payload))
	b[0] = typ
	copy(b[1:5], clnt[:])
	copy(b[5:9], srvr[:])
	binary.BigEndian.PutUint32(b[9:13], proto)
	binary.BigEndian.PutUint32(b[13:17], seq)
	binary.BigEndian.PutUint16(b[17:19], numFrags)
	binary.BigEndian.PutUint16(b[19:21], fragMask)
	binary.BigEndian.PutUint16(b[21:23], length)
	copy(b[fragment.HeaderLen:], payload)
	return b
}

func pack(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(fr)))
		out = append(out, l[:]...)
		out = append(out, fr...)
	}
	return out
}

const (
	tData   uint8 = 0
	tResend uint8 = 1
)

// numFrags17 is sixteen data frames for one sequence number, each
// claiming num_frags = 17, with masks 1<<0 … 1<<15: together they fill
// the 16-bit mask of a message that has a seventeenth fragment no mask
// can name. The collection used to complete with that slot empty and
// dereference it in Join, under the session lock.
func numFrags17() []byte {
	var frames [][]byte
	for i := 0; i < 16; i++ {
		frames = append(frames, frFrame(tData, fuzzPeer, fuzzLocal, uint32(fuzzProto), 8, 17, 1<<i, 1, []byte{byte(i)}))
	}
	return pack(frames...)
}

// numFragsHuge is one data frame claiming num_frags = 0xffff, which used
// to size a 65 535-slot collection held for the whole gap-retry window.
func numFragsHuge() []byte {
	return pack(frFrame(tData, fuzzPeer, fuzzLocal, uint32(fuzzProto), 5, 0xffff, 1<<0, 0, nil))
}

// newFuzzTarget is a FRAGMENT with a delivering app enabled above it and
// nothing but a sink below, on its own fake clock.
func newFuzzTarget(t *testing.T) (*fragment.Protocol, *event.FakeClock, *int) {
	t.Helper()
	clock := event.NewFake()
	p, err := fragment.New("fuzz/fragment", &sinkProto{}, fuzzLocal, fragment.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	delivered := new(int)
	app := xk.NewApp("fuzz/app", func(s xk.Session, m *msg.Msg) error { *delivered++; return nil })
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(fuzzProto))); err != nil {
		t.Fatal(err)
	}
	return p, clock, delivered
}

// feed unpacks data into its length-prefixed frames and demuxes each,
// handing every result to check.
func feed(p *fragment.Protocol, data []byte, check func(error)) {
	lls := &sinkSession{}
	for frames := 0; len(data) >= 2 && frames < 64; frames++ {
		n := int(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
		if n > len(data) {
			n = len(data)
		}
		check(p.Demux(lls, msg.New(data[:n:n])))
		data = data[n:]
	}
}

// A num_frags beyond what the mask can name is a bad header, frame by
// frame: nothing is collected (no gap timer is armed), nothing delivered.
func TestNumFragsBeyondMaskRejected(t *testing.T) {
	for name, input := range map[string][]byte{"17": numFrags17(), "0xffff": numFragsHuge()} {
		p, clock, delivered := newFuzzTarget(t)
		frames := 0
		feed(p, input, func(err error) {
			frames++
			if !errors.Is(err, xk.ErrBadHeader) {
				t.Errorf("num_frags=%s, frame %d: err = %v, want ErrBadHeader", name, frames, err)
			}
		})
		if frames == 0 {
			t.Fatalf("num_frags=%s: the input fed no frames", name)
		}
		if n := clock.PendingCount(); n != 0 {
			t.Errorf("num_frags=%s: %d timers pending: a collection was started", name, n)
		}
		if *delivered != 0 || p.Stats().MessagesDelivered != 0 {
			t.Errorf("num_frags=%s: a message was delivered", name)
		}
	}
}

func FuzzFragmentPop(f *testing.F) {
	pn := uint32(fuzzProto)
	single := frFrame(tData, fuzzPeer, fuzzLocal, pn, 1, 1, 1<<0, 5, []byte("hello"))
	two0 := frFrame(tData, fuzzPeer, fuzzLocal, pn, 2, 2, 1<<0, 4, []byte("frag"))
	two1 := frFrame(tData, fuzzPeer, fuzzLocal, pn, 2, 2, 1<<1, 4, []byte("ment"))
	f.Add(pack(single))
	f.Add(pack(two0, two1))                                                       // complete reassembly
	f.Add(pack(two1, two0))                                                       // out of order
	f.Add(pack(two0, two0, two1))                                                 // duplicate fragment
	f.Add(pack(two0))                                                             // gap: arms the chase timer
	f.Add(pack(frFrame(tResend, fuzzPeer, fuzzLocal, pn, 1, 2, 1<<0, 0, nil)))    // resend for unknown seq
	f.Add(pack(frFrame(tData, fuzzPeer, fuzzLocal, pn, 3, 2, 0, 0, nil)))         // mask with no bit set
	f.Add(pack(frFrame(tData, fuzzPeer, fuzzLocal, pn, 4, 2, 1<<0|1<<1, 0, nil))) // two bits set
	f.Add(numFragsHuge())                                                         // absurd numFrags
	f.Add(numFrags17())                                                           // a full mask of a message with a 17th fragment
	f.Add(pack(frFrame(9, fuzzPeer, fuzzLocal, pn, 6, 1, 1<<0, 0, nil)))          // unknown type
	f.Add(pack(frFrame(tData, fuzzPeer, fuzzLocal, 999, 7, 1, 1<<0, 0, nil)))     // bad proto
	f.Add(pack(single[:12]))                                                      // truncated header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, _ := newFuzzTarget(t)
		// Garbage must come back as an error, never a panic or a read
		// past the frame.
		feed(p, data, func(error) {})
	})
}
