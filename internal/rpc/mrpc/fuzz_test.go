package mrpc

// FuzzMRPCDemux feeds arbitrary byte sequences through M.RPC's Demux, the
// monolithic twin of FuzzFragmentPop: corrupted SPRITE_HDRs, impossible
// masks, replies and acks for calls never made — none may panic or read
// outside the frame. Inputs carry a sequence of length-prefixed frames so
// the fuzzer can compose reassemblies, duplicates and interleavings, in
// both directions: the protocol under test serves requests and has one
// client call in flight for replies and acks to land on.

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/xk"
)

var (
	fuzzLocal = xk.IP(10, 0, 0, 1)
	fuzzPeer  = xk.IP(10, 0, 0, 9)
)

// sinkProto stands in for VIP below M.RPC; sinkSession swallows whatever
// is pushed back down (replies, acks, rejects).
type sinkProto struct{ xk.BaseProtocol }

func (p *sinkProto) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *sinkProto) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	s := &sinkSession{}
	s.InitSession(p, hlp)
	return s, nil
}

type sinkSession struct{ xk.BaseSession }

func (s *sinkSession) Push(*msg.Msg) error { return nil }

// spFrame encodes one SPRITE_HDR followed by payload: a request from
// fuzzPeer, or a reply or ack to the call in flight at fuzzLocal.
func spFrame(flags uint16, seq uint32, numFrags, fragMask uint16, payload []byte) []byte {
	h := header{flags: flags, clntHost: fuzzPeer, srvrHost: fuzzLocal, seq: seq, numFrags: numFrags, fragMask: fragMask, command: 1, bootID: 1, data1Sz: uint16(len(payload))}
	if flags&flagRequest == 0 {
		h.clntHost, h.srvrHost = fuzzLocal, fuzzPeer
	}
	b := make([]byte, HeaderLen+len(payload))
	h.encode(b)
	copy(b[HeaderLen:], payload)
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

// numFrags17 is sixteen frames of one message, each claiming
// num_frags = 17, with masks 1<<0 … 1<<15: a full mask for a message
// with a seventeenth fragment no mask can name. The collector used to
// call it complete and assemble around the empty slot — a 16-of-17
// message delivered as whole.
func numFrags17(flags uint16) []byte {
	var frames [][]byte
	for i := 0; i < 16; i++ {
		frames = append(frames, spFrame(flags, fuzzSeq, 17, 1<<i, []byte{byte(i)}))
	}
	return pack(frames...)
}

// numFragsHuge is one frame claiming num_frags = 0xffff, which used to
// size a 65 535-slot collector.
func numFragsHuge(flags uint16) []byte {
	return pack(spFrame(flags, fuzzSeq, 0xffff, 1<<0, nil))
}

// fuzzSeq is the sequence number of the call in flight, and of the
// request frames in the seed corpus.
const fuzzSeq = 1

// newFuzzTarget is an M.RPC over a sink with an echo handler registered
// and a call in flight on channel 0, so both halves of Demux are live.
func newFuzzTarget(t *testing.T) *Protocol {
	t.Helper()
	p, err := New("fuzz/mrpc", &sinkProto{}, fuzzLocal, Config{Clock: event.NewFake(), NumChannels: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1, func(_ uint16, args *msg.Msg) (*msg.Msg, error) { return args, nil })
	if seq, _ := p.channels[0].slot.Start(1, time.Second, 0, retry.Step{}); seq != fuzzSeq {
		t.Fatalf("the call in flight is seq %d, want %d", seq, fuzzSeq)
	}
	return p
}

// feed unpacks data into its length-prefixed frames and demuxes each,
// handing every result to check.
func feed(p *Protocol, data []byte, check func(error)) {
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
// frame, on both halves: no server channel state is created, nothing
// executes, and the waiting call is handed nothing.
func TestNumFragsBeyondMaskRejected(t *testing.T) {
	for name, input := range map[string][]byte{
		"request 17":     numFrags17(flagRequest),
		"request 0xffff": numFragsHuge(flagRequest),
		"reply 17":       numFrags17(flagReply),
		"reply 0xffff":   numFragsHuge(flagReply),
	} {
		p := newFuzzTarget(t)
		frames := 0
		feed(p, input, func(err error) {
			frames++
			if !errors.Is(err, xk.ErrBadHeader) {
				t.Errorf("%s, frame %d: err = %v, want ErrBadHeader", name, frames, err)
			}
		})
		if frames == 0 {
			t.Fatalf("%s: the input fed no frames", name)
		}
		if n := p.host.Chans(); n != 0 || p.Stats().RequestsServed != 0 {
			t.Errorf("%s: %d server channels, %d requests served; want none", name, n, p.Stats().RequestsServed)
		}
		if p.channels[0].reply.numFrags != 0 {
			t.Errorf("%s: the waiting call's collector started", name)
		}
		if _, replied, _ := waitOut(p, p.channels[0]); replied {
			t.Errorf("%s: the waiting call was handed a reply", name)
		}
	}
}

// waitOut runs the waiting call's Wait on its own goroutine and advances
// the fake clock until it returns: a reply, or the expiry of its one
// attempt.
func waitOut(p *Protocol, cs *chanState) (r amo.Reply, replied, again bool) {
	clock := p.cfg.Clock.(*event.FakeClock)
	done := make(chan bool, 1)
	go func() {
		r, replied, again = cs.slot.Wait()
		done <- true
	}()
	for {
		select {
		case <-done:
			return r, replied, again
		default:
			clock.AdvanceToNext()
			runtime.Gosched()
		}
	}
}

func FuzzMRPCDemux(f *testing.F) {
	req := spFrame(flagRequest, fuzzSeq, 1, 1, []byte("hello"))
	two0 := spFrame(flagRequest, 2, 2, 1<<0, []byte("frag"))
	two1 := spFrame(flagRequest, 2, 2, 1<<1, []byte("ment"))
	rep0 := spFrame(flagReply, fuzzSeq, 2, 1<<0, []byte("re"))
	rep1 := spFrame(flagReply, fuzzSeq, 2, 1<<1, []byte("ply"))
	f.Add(pack(req))
	f.Add(pack(req, req))                                                            // duplicate: replay branch
	f.Add(pack(two0, two1))                                                          // complete reassembly
	f.Add(pack(two1, two0))                                                          // out of order
	f.Add(pack(two0, two0, two1))                                                    // duplicate fragment
	f.Add(pack(spFrame(flagRequest|flagPleaseAck, 3, 3, 1<<1, []byte("x"))))         // partial: explicit ack
	f.Add(pack(spFrame(flagReply, fuzzSeq, 1, 1, []byte("reply"))))                  // whole reply
	f.Add(pack(rep0, rep1))                                                          // collected reply
	f.Add(pack(rep0, spFrame(flagReply, fuzzSeq, 1, 1, []byte("forged")), rep1))     // contradicting frame
	f.Add(pack(spFrame(flagReply|flagError, fuzzSeq, 1, 1, []byte("remote error")))) // error reply
	f.Add(pack(spFrame(flagReply|flagRebooted, fuzzSeq, 1, 1, nil)))                 // reboot reject
	f.Add(pack(spFrame(flagAck, fuzzSeq, 2, 1<<0, nil)))                             // explicit ack
	f.Add(pack(spFrame(flagReply, 7, 1, 1, nil)))                                    // stale seq
	f.Add(pack(spFrame(flagRequest, 4, 2, 0, nil)))                                  // mask with no bit set
	f.Add(pack(spFrame(flagRequest, 5, 2, 1<<0|1<<1, nil)))                          // two bits set
	f.Add(pack(spFrame(0, 6, 1, 1, nil)))                                            // no direction flag
	f.Add(numFrags17(flagRequest))                                                   // full mask, 17th fragment
	f.Add(numFrags17(flagReply))
	f.Add(numFragsHuge(flagRequest)) // absurd numFrags
	f.Add(numFragsHuge(flagReply))
	f.Add(pack(req[:12])) // truncated header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Garbage must come back as an error, never a panic or a read
		// past the frame.
		feed(newFuzzTarget(t), data, func(error) {})
	})
}
