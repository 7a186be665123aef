package stacks

import (
	"errors"
	"sync"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/proto/eth"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/udp"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/rpc/sunrpc"
	"xkernel/internal/sim"
	"xkernel/internal/xk"
)

// sharedSpec composes every caching protocol above the base graph.
const sharedSpec = "vip eth ip\nfragment vip\nchannel fragment\nselect channel\nreqrep fragment\nsunselect reqrep\n"

// sharedBed is a client kernel opening sessions to a server kernel that
// answers every call.
type sharedBed struct {
	cli       *Kernel
	server    xk.IPAddr
	serverEth xk.EthAddr
}

func newSharedBed(t *testing.T) *sharedBed {
	t.Helper()
	client, server, _, err := TwoHosts(sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &sharedBed{cli: NewKernel(client), server: xk.IP(10, 0, 0, 2)}
	srv := NewKernel(server)
	for _, k := range []*Kernel{b.cli, srv} {
		if err := k.Compose(sharedSpec); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := server.Eth.Control(xk.CtlGetMyHost, nil)
	b.serverEth = v.(xk.EthAddr)
	answer := xk.NewApp("server/app", func(s xk.Session, _ *msg.Msg) error { return s.Push(msg.Empty()) })
	for _, name := range []string{"channel", "reqrep"} {
		if err := srv.MustGet(name).OpenEnable(answer, xk.LocalOnly(xk.NewParticipant(ip.ProtoRDG))); err != nil {
			t.Fatal(err)
		}
	}
	srv.MustGet("select").(*selectp.Protocol).Register(1, func(_ uint16, m *msg.Msg) (*msg.Msg, error) { return m, nil })
	srv.MustGet("sunselect").(*sunrpc.Select).Register(1, 1, 1, func(m *msg.Msg) (*msg.Msg, error) { return m, nil })
	return b
}

func push(s xk.Session) error { return s.Push(msg.New([]byte("x"))) }

func call(s xk.Session) error {
	_, err := s.(interface {
		Call(*msg.Msg) (*msg.Msg, error)
	}).Call(msg.New([]byte("x")))
	return err
}

// Every caching protocol's Open shares one session per key among its
// openers, and a session lives until its last opener closes it: one
// opener's Close leaves the other's session working, and only after the
// last Close does an open build a fresh one. Two rows share a lower
// session under different keys: two UDP ports over one IP session, and
// VIP's lazily opened IP path with the IP session a racing push opened
// and closed again (VIP's openIP loser).
func TestSharedOpenCloseByCount(t *testing.T) {
	app := xk.NewApp("client/app", nil)
	for _, tc := range []struct {
		name string
		same bool // both openers name one key
		open func(b *sharedBed, i int) (xk.Session, error)
		use  func(xk.Session) error
	}{
		{"eth", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.host.Eth.Open(app, xk.NewParticipants(xk.NewParticipant(eth.Type(0x0999)), xk.NewParticipant(b.serverEth)))
		}, push},
		{"ip", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.host.IP.Open(app, xk.NewParticipants(xk.NewParticipant(ip.ProtoNum(250)), xk.NewParticipant(b.server)))
		}, push},
		{"udp", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.host.UDP.Open(app, xk.NewParticipants(xk.NewParticipant(udp.Port(30000)), xk.NewParticipant(b.server, udp.Port(7))))
		}, push},
		{"udp-over-ip", false, func(b *sharedBed, i int) (xk.Session, error) {
			port := udp.Port(7 + 2*(i%2))
			return b.cli.host.UDP.Open(app, xk.NewParticipants(xk.NewParticipant(udp.Port(30000)), xk.NewParticipant(b.server, port)))
		}, push},
		{"fragment", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.MustGet("fragment").Open(app, xk.NewParticipants(xk.NewParticipant(ip.ProtoNum(250)), xk.NewParticipant(b.server)))
		}, push},
		{"channel", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.MustGet("channel").Open(app, xk.NewParticipants(xk.NewParticipant(ip.ProtoRDG, channel.ID(0)), xk.NewParticipant(b.server)))
		}, call},
		{"reqrep", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.MustGet("reqrep").Open(app, xk.NewParticipants(xk.NewParticipant(ip.ProtoRDG, channel.ID(0)), xk.NewParticipant(b.server)))
		}, call},
		{"select", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.MustGet("select").Open(app, &xk.Participants{Remote: xk.NewParticipant(b.server)})
		}, func(s xk.Session) error {
			_, err := s.(*selectp.Session).CallBytes(1, []byte("x"))
			return err
		}},
		{"sunselect", true, func(b *sharedBed, _ int) (xk.Session, error) {
			return b.cli.MustGet("sunselect").Open(app, &xk.Participants{Remote: xk.NewParticipant(b.server)})
		}, func(s xk.Session) error {
			_, err := s.(*sunrpc.SelectSession).CallBytes(1, 1, 1, []byte("x"))
			return err
		}},
		{"vip-openip-loser", false, func(b *sharedBed, i int) (xk.Session, error) {
			vip := b.cli.MustGet("vip")
			parts := xk.NewParticipants(xk.NewParticipant(ip.ProtoNum(250)), xk.NewParticipant(b.server))
			if i%2 == 1 { // what a push that lost the race to open the IP path opens
				return b.cli.host.IP.Open(vip, parts)
			}
			return vip.Open(xk.NewApp("unbounded", nil), parts) // both paths open
		}, func(s xk.Session) error {
			return s.Push(msg.New(make([]byte, 2000))) // over the wire's MTU: the IP path
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSharedBed(t)
			first, err := tc.open(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			second, err := tc.open(b, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.same && second != first {
				t.Fatal("two opens of one key returned two sessions")
			}
			if err := second.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.use(first); err != nil {
				t.Fatalf("after another opener's Close: %v", err)
			}
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}
			third, err := tc.open(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if third == first {
				t.Fatal("open after the last Close returned the closed session")
			}
			if err := tc.use(third); err != nil {
				t.Fatalf("fresh session: %v", err)
			}
		})
	}
}

// Opens and last Closes of one UDP key race from several goroutines: no
// Open returns a session that is closed, and once every opener has
// closed, every session is closed and the next Open builds a fresh one.
func TestOpenAgainstLastClose(t *testing.T) {
	const workers, rounds = 4, 50
	b := newSharedBed(t)
	open := func() (xk.Session, error) {
		return b.cli.host.UDP.Open(xk.NewApp("app", nil), xk.NewParticipants(xk.NewParticipant(udp.Port(30000)), xk.NewParticipant(b.server, udp.Port(7))))
	}
	var seen sync.Map
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				s, err := open()
				if err != nil {
					t.Error(err)
					return
				}
				seen.Store(s, true)
				if err := push(s); err != nil {
					t.Errorf("push on a freshly opened session: %v", err)
					return
				}
				_ = s.Close()
			}
		}()
	}
	wg.Wait()
	seen.Range(func(s, _ any) bool {
		if err := push(s.(xk.Session)); !errors.Is(err, xk.ErrClosed) {
			t.Errorf("session still open after every opener closed it: %v", err)
		}
		return true
	})
	s, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if _, old := seen.Load(s); old {
		t.Fatal("open after the last Close returned a released session")
	}
}
