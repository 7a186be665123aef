package vip_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/xk"
)

// gateSession is a lower session whose first n protocol-number queries —
// the passive open's identify step, which runs after the demux lookup
// missed — wait until all n have been asked.
type gateSession struct {
	xk.BaseSession
	host  xk.IPAddr
	n     int32
	asked atomic.Int32
	gate  sync.WaitGroup
}

func newGate(llp xk.Protocol, host xk.IPAddr, n int) *gateSession {
	s := &gateSession{host: host, n: int32(n)}
	s.InitSession(llp, nil)
	s.gate.Add(n)
	return s
}

func (s *gateSession) Control(op xk.ControlOp, _ any) (any, error) {
	switch op {
	case xk.CtlGetPeerProto:
		if s.asked.Add(1) <= s.n {
			s.gate.Done()
			s.gate.Wait()
		}
		return uint32(testProto), nil
	case xk.CtlGetPeerHost:
		return s.host, nil
	}
	return nil, xk.ErrOpNotSupported
}

// N first-contact messages on one lower session, each held after its
// demux lookup missed until all N have missed: VIP and VIPsize wrap the
// lower session once, the client hears one OpenDone, and every message
// goes up through that session.
func TestFirstContactBindsOneSession(t *testing.T) {
	const n = 4
	peer := xk.IP(10, 0, 0, 1)
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (p, lower xk.Protocol)
	}{
		{"vip", func(t *testing.T) (xk.Protocol, xk.Protocol) {
			_, server, _, err := stacks.TwoHosts(sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return newVIP(t, server), server.IP
		}},
		{"vipsize", func(t *testing.T) (xk.Protocol, xk.Protocol) {
			b := buildSize(t)
			return b.ss, b.sf
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, lower := tc.build(t)
			var mu sync.Mutex
			from := map[xk.Session]int{}
			app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
				mu.Lock()
				from[s]++
				mu.Unlock()
				return nil
			})
			if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(testProto))); err != nil {
				t.Fatal(err)
			}
			lls := newGate(lower, peer, n)
			var wg sync.WaitGroup
			for i := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := p.Demux(lls, msg.New([]byte{byte(i)})); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			opened := app.Sessions()
			if len(opened) != 1 {
				t.Fatalf("%d OpenDone calls for one lower session, want 1", len(opened))
			}
			if len(from) != 1 || from[opened[0]] != n {
				t.Fatalf("deliveries by session %v, want all %d through the one opened", from, n)
			}
		})
	}
}
