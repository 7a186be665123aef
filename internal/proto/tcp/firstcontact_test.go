package tcp

import (
	"sync"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/xk"
)

// ipStub stands in for the protocol below TCP: it accepts the enable.
type ipStub struct{ xk.BaseProtocol }

func (p *ipStub) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

// peerSession is the lower session segments arrive on: it names the
// sending host and records every segment pushed back to it.
type peerSession struct {
	xk.BaseSession
	host xk.IPAddr
	mu   sync.Mutex
	sent []header
}

func (s *peerSession) Control(op xk.ControlOp, _ any) (any, error) {
	if op == xk.CtlGetPeerHost {
		return s.host, nil
	}
	return nil, xk.ErrOpNotSupported
}

func (s *peerSession) Push(m *msg.Msg) error {
	s.mu.Lock()
	s.sent = append(s.sent, decodeHeader(m.Bytes()))
	s.mu.Unlock()
	return nil
}

// N duplicate SYNs from one ⟨host, port⟩ to a listening port, each held
// between building its passive connection and binding it until all N
// have built one: one connection is bound and answers with one SYN-ACK,
// and completing the handshake gives the listener one OpenDone.
func TestFirstContactBindsOneConnection(t *testing.T) {
	const n = 4
	const lport, rport = Port(80), Port(4000)
	rhost := xk.IP(10, 0, 0, 9)
	p, err := New("tcp", &ipStub{}, Config{Clock: event.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	app := xk.NewApp("app", nil)
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(lport))); err != nil {
		t.Fatal(err)
	}
	var built sync.WaitGroup
	built.Add(n)
	p.active.SetBuildHook(func() {
		built.Done()
		built.Wait()
	})
	lls := &peerSession{host: rhost}
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			syn := buildSegment(header{src: rport, dst: lport, seq: 5000, flags: flagSYN, window: 1 << 14}, nil)
			if err := p.Demux(lls, syn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	p.active.SetBuildHook(nil)

	var kb pmap.Key
	bound, ok := p.active.Resolve(key(&kb, lport, rport, rhost))
	if !ok || p.active.Len() != 1 {
		t.Fatalf("%d connections bound, want 1", p.active.Len())
	}
	if len(lls.sent) != 1 || lls.sent[0].flags != flagSYN|flagACK {
		t.Fatalf("answered %d SYNs with %+v, want one SYN-ACK", n, lls.sent)
	}
	ack := buildSegment(header{src: rport, dst: lport, seq: 5001, ack: lls.sent[0].seq + 1, flags: flagACK, window: 1 << 14}, nil)
	if err := p.Demux(lls, ack); err != nil {
		t.Fatal(err)
	}
	opened := app.Sessions()
	if len(opened) != 1 || opened[0] != bound.(*Conn) {
		t.Fatalf("OpenDone for %v, want once for the bound connection", opened)
	}
}
