package udp

import (
	"encoding/binary"
	"sync"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/xk"
)

// ipStub stands in for IP below UDP: it accepts the enable, and its
// session names the datagram's source host.
type ipStub struct{ xk.BaseProtocol }

func (p *ipStub) OpenEnable(xk.Protocol, *xk.Participants) error { return nil }

type ipStubSession struct {
	xk.BaseSession
	host xk.IPAddr
}

func (s *ipStubSession) Control(op xk.ControlOp, _ any) (any, error) {
	if op == xk.CtlGetPeerHost {
		return s.host, nil
	}
	return nil, xk.ErrOpNotSupported
}

// N first-contact datagrams from one ⟨host, port⟩ to an enabled port,
// each held between building its passive session and binding it until
// all N have built one: one session is bound, one OpenDone is heard,
// and every datagram goes up through that session.
func TestFirstContactBindsOneSession(t *testing.T) {
	const n = 4
	const lport, rport = Port(7), Port(4000)
	rhost := xk.IP(10, 0, 0, 9)
	p, err := New("udp", &ipStub{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	from := map[xk.Session]int{}
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
		mu.Lock()
		from[s]++
		mu.Unlock()
		return nil
	})
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(lport))); err != nil {
		t.Fatal(err)
	}
	var built sync.WaitGroup
	built.Add(n)
	p.active.SetBuildHook(func() {
		built.Done()
		built.Wait()
	})

	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := make([]byte, HeaderLen+1)
			binary.BigEndian.PutUint16(d[0:2], uint16(rport))
			binary.BigEndian.PutUint16(d[2:4], uint16(lport))
			binary.BigEndian.PutUint16(d[4:6], uint16(len(d)))
			d[HeaderLen] = byte(i)
			if err := p.Demux(&ipStubSession{host: rhost}, msg.New(d)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	opened := app.Sessions()
	if len(opened) != 1 {
		t.Fatalf("%d OpenDone calls for one peer, want 1", len(opened))
	}
	var kb pmap.Key
	bound, ok := p.active.Resolve(key(&kb, lport, rport, rhost))
	if !ok || bound.(xk.Session) != opened[0] {
		t.Fatalf("bound session %v is not the one opened", bound)
	}
	if len(from) != 1 || from[opened[0]] != n {
		t.Fatalf("deliveries by session %v, want all %d through the one opened", from, n)
	}
}
