package mrpc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragmask"
	"xkernel/internal/rpc/retry"
	"xkernel/internal/xk"
)

// M.RPC's one-fragment paths and per-channel call state, seen from
// inside: two protocol instances joined by a lower protocol that hands
// each pushed frame straight to the other side's Demux and counts it.

var (
	pipeClient = xk.IP(10, 0, 0, 1)
	pipeServer = xk.IP(10, 0, 0, 2)
)

type pipeProto struct {
	xk.BaseProtocol
	peer   *Protocol // whose Demux receives what this side pushes
	frames int
	sess   *pipeSession
	// lose, if set, is asked about each frame (numbered from 1 by
	// frames) and eats the ones it says yes to; sent keeps every frame
	// pushed, eaten or not.
	lose func(n int) bool
	sent [][]byte
}

func (p *pipeProto) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

func (p *pipeProto) Open(hlp xk.Protocol, ps *xk.Participants) (xk.Session, error) {
	return p.sess, nil
}

type pipeSession struct {
	xk.BaseSession
	p, far *pipeProto
}

// Push delivers a copy of m and consumes m itself, as the receiving host
// does with a frame on the simulator's message path: it is popped to its
// end, so a pusher that kept m rather than a copy finds it emptied.
func (s *pipeSession) Push(m *msg.Msg) error {
	s.p.frames++
	fr := m.Bytes()
	s.p.sent = append(s.p.sent, fr)
	for m.Len() > 0 {
		if _, err := m.Pop(min(7, m.Len())); err != nil {
			return err
		}
	}
	if s.p.lose != nil && s.p.lose(s.p.frames) {
		return nil
	}
	return s.p.peer.Demux(s.far.sess, msg.New(fr))
}

func newPipe(t *testing.T) (cli, srv *Protocol, cliWire, srvWire *pipeProto) {
	t.Helper()
	cliWire, srvWire = &pipeProto{}, &pipeProto{}
	cliWire.sess = &pipeSession{p: cliWire, far: srvWire}
	srvWire.sess = &pipeSession{p: srvWire, far: cliWire}
	cfg := Config{Clock: event.NewFake(), NumChannels: 1}
	var err error
	if cli, err = New("client/mrpc", cliWire, pipeClient, cfg); err != nil {
		t.Fatal(err)
	}
	if srv, err = New("server/mrpc", srvWire, pipeServer, cfg); err != nil {
		t.Fatal(err)
	}
	cliWire.peer, srvWire.peer = srv, cli
	cliWire.sess.InitSession(cliWire, cli)
	srvWire.sess.InitSession(srvWire, srv)
	srv.Register(1, func(_ uint16, args *msg.Msg) (*msg.Msg, error) { return args, nil })
	return cli, srv, cliWire, srvWire
}

func openPipe(t *testing.T, cli *Protocol) *Session {
	t.Helper()
	s, err := cli.Open(xk.NewApp("app", nil), &xk.Participants{Remote: xk.NewParticipant(pipeServer)})
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Session)
}

// Exactly one packet's worth goes out framed in place, one frame each
// way; one byte more is split in two each way; both echo byte for byte.
// A request without the header room is split like a long one.
func TestOneFragmentBoundary(t *testing.T) {
	cli, _, cliWire, srvWire := newPipe(t)
	s := openPipe(t, cli)
	maxFrag := cli.cfg.MaxPacket - HeaderLen
	for _, tc := range []struct {
		name      string
		args      *msg.Msg
		out, back int
	}{
		{"exactly one packet", msg.New(msg.MakeData(maxFrag)), 1, 1},
		{"one byte more", msg.New(msg.MakeData(maxFrag + 1)), 2, 2},
		{"no header room", msg.NewWithLeader(msg.MakeData(100), HeaderLen-1), 1, 1},
		{"null", msg.Empty(), 1, 1},
		{"null, no header room", msg.NewWithLeader(nil, 0), 1, 1}, // count 0 becomes 1
	} {
		want := tc.args.Bytes()
		cliWire.frames, srvWire.frames = 0, 0
		reply, err := s.Call(1, tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(reply.Bytes(), want) {
			t.Fatalf("%s: echo differs (%d bytes back, %d sent)", tc.name, reply.Len(), len(want))
		}
		if cliWire.frames != tc.out || srvWire.frames != tc.back {
			t.Fatalf("%s: %d frames out, %d back; want %d and %d", tc.name, cliWire.frames, srvWire.frames, tc.out, tc.back)
		}
	}
	if got := cli.Stats().Retransmits; got != 0 {
		t.Fatalf("%d retransmissions on a lossless pipe", got)
	}
}

// A duplicate of the previous call's reply that lands after that call
// took its own must not be returned by the next call on the channel.
func TestStaleReplyDoesNotSatisfyNextCall(t *testing.T) {
	cli, _, _, _ := newPipe(t)
	s := openPipe(t, cli)
	if _, err := s.Call(1, msg.New([]byte("one"))); err != nil {
		t.Fatal(err)
	}
	cs := cli.channels[0]
	// A call holds the channel and has taken its reply; a duplicate of
	// that reply arrives.
	seq, _ := cs.slot.Start(1, time.Second, 0, retry.Step{})
	dup := header{flags: flagReply, clntHost: pipeClient, srvrHost: pipeServer, seq: seq, numFrags: 1, fragMask: 1, bootID: 1}
	if err := cli.clientReceive(dup, msg.New([]byte("stale"))); err != nil {
		t.Fatal(err)
	}
	if r, replied, _ := cs.slot.Wait(); !replied || string(r.M.Bytes()) != "stale" {
		t.Fatal("the duplicate did not land in the reply slot; the test builds nothing")
	}
	if err := cli.clientReceive(dup, msg.New([]byte("stale"))); err != nil {
		t.Fatal(err)
	}
	cs.slot.Finish()
	reply, err := s.Call(1, msg.New([]byte("two")))
	if err != nil || string(reply.Bytes()) != "two" {
		t.Fatalf("second call returned %q, %v; want its own reply", reply.Bytes(), err)
	}
}

// A frame claiming to be a whole reply under the sequence number of a
// reply that is already being collected goes through that collector (a
// duplicate of fragment 0 there), not past it to the caller.
func TestOneFragmentReplyContradictingCollection(t *testing.T) {
	cli, _, _, _ := newPipe(t)
	s := openPipe(t, cli)
	if _, err := s.Call(1, msg.New([]byte("one"))); err != nil {
		t.Fatal(err)
	}
	cs := cli.channels[0]
	seq, _ := cs.slot.Start(1, time.Second, 0, retry.Step{}) // a call in flight, its two-fragment reply arriving
	defer cs.slot.Finish()
	frag := func(numFrags, mask uint16, body string) {
		t.Helper()
		h := header{flags: flagReply, clntHost: pipeClient, srvrHost: pipeServer, seq: seq, numFrags: numFrags, fragMask: mask, bootID: 1}
		if err := cli.clientReceive(h, msg.New([]byte(body))); err != nil {
			t.Fatal(err)
		}
	}
	frag(2, 1, "first ")
	frag(1, 1, "forged")
	frag(2, 2, "second")
	// The call's one reply: the forged frame, had it been handed over,
	// would have taken the slot, and the collected reply been dropped.
	r, replied, _ := cs.slot.Wait()
	if !replied || r.Err != nil || string(r.M.Bytes()) != "first second" {
		t.Fatalf("the call was handed %+v (replied %v), want the collected reply", r, replied)
	}
}

// The client holds the request as it was given and cuts each fragment
// from it at the moment of sending, so a retransmission re-cuts the same
// bytes: only the flags field (PLEASE_ACK) differs from the first
// transmission, and only the fragments the server has not acknowledged go
// again.
func TestRetransmissionRecutsTheSameFragments(t *testing.T) {
	cli, _, cliWire, _ := newPipe(t)
	s := openPipe(t, cli)
	clock := cli.cfg.Clock.(*event.FakeClock)
	maxFrag := cli.cfg.MaxPacket - HeaderLen
	payload := msg.MakeData(2*maxFrag + 10) // three fragments

	// Every first transmission is lost; the retransmission's fragment 1
	// is lost too, and the server's partial ack names the other two.
	cliWire.lose = func(n int) bool { return n <= 3 || n == 5 }
	cliWire.frames = 0
	type result struct {
		reply *msg.Msg
		err   error
	}
	done := make(chan result, 1)
	go func() {
		reply, err := s.Call(1, msg.New(payload))
		done <- result{reply, err}
	}()
	var r result
	for waiting := true; waiting; {
		select {
		case r = <-done:
			waiting = false
		default:
			clock.Advance(cli.cfg.RetransmitInterval)
			time.Sleep(100 * time.Microsecond)
		}
	}
	if r.err != nil || !bytes.Equal(r.reply.Bytes(), payload) {
		t.Fatalf("echo after two lossy attempts: %v", r.err)
	}
	if got := cli.Stats().Retransmits; got != 2 {
		t.Fatalf("%d retransmissions, want 2", got)
	}
	sent := cliWire.sent
	if len(sent) != 3+3+1 {
		t.Fatalf("%d request frames, want 3 first + 3 again + the 1 still missing", len(sent))
	}
	sameButFlags := func(a, b []byte) bool {
		return len(a) == len(b) && bytes.Equal(a[2:], b[2:])
	}
	for i := 0; i < 3; i++ {
		if h := decodeHeader(sent[i]); h.fragMask != 1<<i || h.numFrags != 3 || h.flags&flagPleaseAck != 0 {
			t.Fatalf("first transmission, frame %d: %+v", i, h)
		}
		if !sameButFlags(sent[3+i], sent[i]) || decodeHeader(sent[3+i]).flags&flagPleaseAck == 0 {
			t.Fatalf("retransmitted fragment %d is not its first transmission with PLEASE_ACK set", i)
		}
	}
	if !bytes.Equal(sent[6], sent[4]) {
		t.Fatal("the third attempt did not resend exactly the unacknowledged fragment 1")
	}
}

// A twelve-fragment request loses fragments 1, 5, 6 and 11 on its first
// two attempts. The second attempt draws the server's partial acks, so
// the third retransmits exactly those four, cut again from the held
// request: each the same bytes as its retransmission before. The server
// runs the request once, on the bytes the caller passed, and the echo
// comes back byte-identical.
func TestPartialMaskRetransmissionIsByteIdentical(t *testing.T) {
	cli, srv, cliWire, _ := newPipe(t)
	s := openPipe(t, cli)
	clock := cli.cfg.Clock.(*event.FakeClock)
	maxFrag := cli.cfg.MaxPacket - HeaderLen
	args := msg.New(msg.MakeData(11*maxFrag + 100)) // twelve fragments
	args.MustPush([]byte("caller's own header"))
	want := args.Bytes()

	lost := map[int]bool{1: true, 5: true, 6: true, 11: true}
	cliWire.lose = func(n int) bool { return n <= 24 && lost[(n-1)%12] }
	cliWire.frames = 0
	type result struct {
		reply *msg.Msg
		err   error
	}
	done := make(chan result, 1)
	go func() {
		reply, err := s.Call(1, args)
		done <- result{reply, err}
	}()
	var r result
	for waiting := true; waiting; {
		select {
		case r = <-done:
			waiting = false
		default:
			clock.Advance(cli.cfg.RetransmitInterval)
			time.Sleep(100 * time.Microsecond)
		}
	}
	if r.err != nil || !bytes.Equal(r.reply.Bytes(), want) {
		t.Fatalf("echo after two lossy attempts: %v", r.err)
	}
	if got := cli.Stats().Retransmits; got != 2 {
		t.Fatalf("%d retransmissions, want 2", got)
	}
	if got := srv.Stats().RequestsServed; got != 1 {
		t.Fatalf("server ran the request %d times, want 1", got)
	}
	sent := cliWire.sent
	if len(sent) != 12+12+len(lost) {
		t.Fatalf("%d request frames, want 12 first + 12 again + the %d still missing", len(sent), len(lost))
	}
	k := 24
	for i := 0; i < 12; i++ {
		if !lost[i] {
			continue
		}
		if h := decodeHeader(sent[k]); h.fragMask != 1<<i || h.flags&flagPleaseAck == 0 {
			t.Fatalf("third attempt, frame %d: %+v, want fragment %d with PLEASE_ACK", k-24, h, i)
		}
		if !bytes.Equal(sent[k], sent[12+i]) {
			t.Fatalf("fragment %d's third transmission differs from its second", i)
		}
		k++
	}
}

// Call derives the fragment count from the length before it cuts
// anything: a request of too many fragments is refused with nothing sent.
func TestCallCountsFragmentsBeforeCutting(t *testing.T) {
	cliWire := &pipeProto{}
	cliWire.sess = &pipeSession{p: cliWire}
	cli, err := New("client/mrpc", cliWire, pipeClient, Config{Clock: event.NewFake(), NumChannels: 1, MaxPacket: HeaderLen + 100})
	if err != nil {
		t.Fatal(err)
	}
	cliWire.sess.InitSession(cliWire, cli)
	s := openPipe(t, cli)
	if _, err := s.Call(1, msg.New(msg.MakeData(100*16+1))); !errors.Is(err, xk.ErrMsgTooBig) {
		t.Fatalf("17-fragment request: err = %v, want ErrMsgTooBig", err)
	}
	if cliWire.frames != 0 {
		t.Fatalf("refused request put %d frames on the wire", cliWire.frames)
	}
}

// TestReplayIsTheRecordedFrames: a reply whose last frame is lost is
// replayed from the ledger when the retransmission finds the request
// finished, and every replayed frame leaves byte for byte as the original
// did, though the originals were consumed by the pipe below when they
// were sent. One frame, and a 4 KB echo's three.
func TestReplayIsTheRecordedFrames(t *testing.T) {
	for _, size := range []int{64, 4096} {
		cli, srv, _, srvWire := newPipe(t)
		s := openPipe(t, cli)
		clock := cli.cfg.Clock.(*event.FakeClock)
		frames := fragmask.Count(size, cli.cfg.MaxPacket-HeaderLen)
		srvWire.lose = func(n int) bool { return n == frames }
		payload := msg.MakeData(size)
		done := make(chan error, 1)
		go func() {
			reply, err := s.Call(1, msg.New(payload))
			if err == nil && !bytes.Equal(reply.Bytes(), payload) {
				err = errors.New("the echo came back changed")
			}
			done <- err
		}()
		for waiting := true; waiting; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%d bytes: %v", size, err)
				}
				waiting = false
			default:
				clock.Advance(cli.cfg.RetransmitInterval)
				time.Sleep(100 * time.Microsecond)
			}
		}
		st := srv.Stats()
		if st.RequestsServed != 1 || st.ReplayedReplies == 0 {
			t.Fatalf("%d bytes: served %d, replayed %d; want 1 and some", size, st.RequestsServed, st.ReplayedReplies)
		}
		// Each retransmitted request frame draws a whole replay.
		sent := srvWire.sent
		if want := frames * int(1+st.ReplayedReplies); len(sent) != want {
			t.Fatalf("%d bytes: the server sent %d frames, want %d: the reply and %d replays", size, len(sent), want, st.ReplayedReplies)
		}
		for i := frames; i < len(sent); i++ {
			if !bytes.Equal(sent[i], sent[i%frames]) {
				t.Fatalf("%d bytes: frame %d of replay %d differs from the original", size, i%frames, i/frames)
			}
		}
	}
}
