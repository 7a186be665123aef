package channel_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/xk"
)

// pipe joins a client and a server CHANNEL with nothing between them: it
// stands for the layers below and the wire. Each frame pushed into it
// gets a header of its own pushed on, is kept as it leaves, and is then
// consumed to its end, as the receiving host does with a frame on the
// simulator's message path; the far side's Demux gets a copy.
type pipe struct {
	xk.BaseProtocol
	host xk.IPAddr
	far  *pipe
	up   xk.Protocol
	sess *pipeSession

	mu   sync.Mutex
	lose func(n int) bool // asked about each frame, numbered from 1
	sent [][]byte
}

const pipeHeader = "pipe"

func (p *pipe) Open(xk.Protocol, *xk.Participants) (xk.Session, error) { return p.sess, nil }

func (p *pipe) OpenEnable(hlp xk.Protocol, _ *xk.Participants) error {
	p.up = hlp
	return nil
}

func (p *pipe) Control(op xk.ControlOp, _ any) (any, error) {
	if op == xk.CtlGetMTU {
		return 64 << 10, nil
	}
	return nil, xk.ErrOpNotSupported
}

type pipeSession struct {
	xk.BaseSession
	p *pipe
}

func (s *pipeSession) Control(op xk.ControlOp, _ any) (any, error) {
	switch op {
	case xk.CtlGetPeerHost:
		return s.p.far.host, nil
	case xk.CtlGetMTU:
		return 64 << 10, nil
	}
	return nil, xk.ErrOpNotSupported
}

func (s *pipeSession) Push(m *msg.Msg) error {
	p := s.p
	m.MustPush([]byte(pipeHeader))
	fr := m.Bytes()
	for m.Len() > 0 {
		if _, err := m.Pop(min(7, m.Len())); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.sent = append(p.sent, fr)
	lost := p.lose != nil && p.lose(len(p.sent))
	p.mu.Unlock()
	if lost {
		return nil
	}
	return p.far.up.Demux(p.far.sess, msg.New(fr[len(pipeHeader):]))
}

func (p *pipe) frames() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]byte(nil), p.sent...)
}

// pipes builds a client and a server CHANNEL joined by a pipe.
func pipes(t *testing.T, clock event.Clock) (cc, sc *channel.Protocol, srvPipe *pipe) {
	t.Helper()
	cp := &pipe{BaseProtocol: xk.BaseProtocol{ProtoName: "client/pipe"}, host: xk.IP(10, 0, 0, 1)}
	sp := &pipe{BaseProtocol: xk.BaseProtocol{ProtoName: "server/pipe"}, host: xk.IP(10, 0, 0, 2)}
	cp.far, sp.far = sp, cp
	for _, p := range []*pipe{cp, sp} {
		p.sess = &pipeSession{p: p}
	}
	var err error
	if cc, err = channel.New("client/channel", cp, channel.Config{Clock: clock}); err != nil {
		t.Fatal(err)
	}
	if sc, err = channel.New("server/channel", sp, channel.Config{Clock: clock}); err != nil {
		t.Fatal(err)
	}
	cp.sess.InitSession(cp, cc)
	sp.sess.InitSession(sp, sc)
	return cc, sc, sp
}

// TestReplayIsTheRecordedFrame: a lost reply is replayed from the ledger
// when the retransmission finds the request finished, and the replay
// leaves byte for byte as the original did, though the original was
// consumed below when it was sent. A one-frame reply, and a 4 KB echo
// whose reply chain is out of line, as a reassembled request's is.
func TestReplayIsTheRecordedFrame(t *testing.T) {
	for _, size := range []int{64, 4096} {
		clock := event.NewFake()
		cc, sc, srvPipe := pipes(t, clock)
		app := xk.NewApp("srv", nil)
		app.Deliver = func(s xk.Session, m *msg.Msg) error {
			b := m.Bytes()
			reply := msg.New(b)
			if size > 64 {
				reply = msg.New(b[:size/3])
				reply.Append(b[size/3 : 2*size/3])
				reply.Append(b[2*size/3:])
			}
			return s.(*channel.ServerSession).Push(reply)
		}
		if err := sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
			t.Fatal(err)
		}
		srvPipe.lose = func(n int) bool { return n == 1 }
		s := open(t, cc, 0)
		payload := msg.MakeData(size)
		done := make(chan error, 1)
		go func() {
			reply, err := s.Call(msg.New(payload))
			if err == nil && !bytes.Equal(reply.Bytes(), payload) {
				t.Errorf("%d bytes: the echo came back changed", size)
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
				clock.AdvanceToNext()
				time.Sleep(100 * time.Microsecond)
			}
		}
		if st := sc.Stats(); st.RequestsServed != 1 || st.ReplayedReplies != 1 {
			t.Fatalf("%d bytes: served %d, replayed %d; want 1 and 1", size, st.RequestsServed, st.ReplayedReplies)
		}
		sent := srvPipe.frames()
		if len(sent) != 2 || !bytes.Equal(sent[1], sent[0]) {
			t.Fatalf("%d bytes: the server sent %d frames, want the reply and its identical replay", size, len(sent))
		}
	}
}
