package bench

import (
	"fmt"
	"sync/atomic"

	"xkernel/internal/msg"
	"xkernel/internal/obs"
	"xkernel/internal/obs/span"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/udp"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/rpc/nrpc"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/rpc/sunrpc"
	"xkernel/internal/xk"
)

// The seven client endpoints: what differs between the measured stacks
// above the composed graph. Each open function is named by a row of
// stackTable; it installs the server's null/echo procedures on the
// stack's top instance and opens the client session the Endpoint drives.

// ---- M.RPC configurations (Table I) ----

type mrpcEndpoint struct{ s *mrpc.Session }

func (e *mrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *mrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	return e.s.CallBytes(CmdEcho, payload)
}

func openMRPC(tb *Testbed, top string) error {
	cli, srv := instances[*mrpc.Protocol](tb, top)
	tb.ServerExecs = registerHandlers(srv.Register, tb.Meter)
	app := xk.NewApp("client/app", nil)
	app.MaxMsg = 1500
	s, err := cli.Open(app, toServer())
	if err != nil {
		return err
	}
	tb.shared(&mrpcEndpoint{s: s.(*mrpc.Session)})
	return nil
}

// ---- N.RPC analogue ----

type nrpcEndpoint struct{ s *nrpc.Session }

func (e *nrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *nrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	reply, err := e.s.Call(CmdEcho, msg.New(payload))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

func openNRPC(tb *Testbed, top string) error {
	cli, srv := instances[*nrpc.Protocol](tb, top)
	tb.ServerExecs = registerHandlers(srv.Register, tb.Meter)
	s, err := cli.OpenSession(ServerAddr)
	if err != nil {
		return err
	}
	tb.shared(&nrpcEndpoint{s: s})
	return nil
}

// ---- SELECT endpoint: L_RPC (Tables II, III) and the §4.3 composition ----

type selectEndpoint struct{ s *selectp.Session }

func (e *selectEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(CmdNull, msg.New(payload))
	return err
}

func (e *selectEndpoint) Echo(payload []byte) ([]byte, error) {
	return e.s.CallBytes(CmdEcho, payload)
}

// openSelect drives SELECT directly — the wrap boundaries sit below it,
// so the select session keeps its concrete type.
func openSelect(tb *Testbed, top string) error {
	cli, srv := instances[*selectp.Protocol](tb, top)
	tb.ServerExecs = registerHandlers(srv.Register, tb.Meter)
	s, err := cli.Open(xk.NewApp("client/app", nil), toServer())
	if err != nil {
		return err
	}
	tb.shared(&selectEndpoint{s: s.(*selectp.Session)})
	return nil
}

// ---- CHANNEL endpoint: request/reply without procedure selection ----

// channelEndpoint drives a bare CHANNEL session: the server side is an
// App that answers every request with a null reply (or an echo of the
// request for Echo, signalled by a one-byte prefix). The session is
// held by its synchronous-call shape rather than its concrete type so
// an instrumentation wrapper can stand in for it.
type channelEndpoint struct {
	s interface {
		Call(*msg.Msg) (*msg.Msg, error)
	}
}

// openChannel installs the null/echo server app above the server's
// CHANNEL and opens client channel 0 above the client's.
func openChannel(tb *Testbed, top string) error {
	cli, srv, err := tb.above(top)
	if err != nil {
		return err
	}
	execs := new(atomic.Int64)
	tb.ServerExecs = execs.Load
	deliver := func(s xk.Session, m *msg.Msg) error {
		// s is the channel ServerSession (possibly instrumented); Push
		// on it sends the reply for the request being delivered.
		execs.Add(1)
		kind, err := m.Pop(1)
		if err != nil {
			return s.Push(msg.Empty())
		}
		if kind[0] == 'e' {
			return s.Push(m)
		}
		return s.Push(msg.Empty())
	}
	serverApp := xk.NewApp("server/app", deliver)
	if mtr := tb.Meter; mtr != nil {
		serverApp.Deliver = func(s xk.Session, m *msg.Msg) error {
			rec := mtr.Spans()
			if !rec.Enabled() {
				return deliver(s, m)
			}
			sid := rec.BeginMsg("server/handler", span.DirHandler, obs.EnsureMsgID(m), m)
			err := deliver(s, m)
			rec.EndMsg(sid, m, span.ErrString(err))
			return err
		}
	}
	if err := srv.OpenEnable(serverApp, xk.LocalOnly(xk.NewParticipant(ip.ProtoRDG))); err != nil {
		return err
	}
	if tb.End, err = openChannelEndpoint(cli, 0); err != nil {
		return err
	}
	// A bare CHANNEL permits one outstanding call per channel id, so
	// every concurrent client opens a channel of its own (id 0 is
	// taken by tb.End).
	tb.NewEndpoint = func(id int) (Endpoint, error) {
		return openChannelEndpoint(cli, id+1)
	}
	return nil
}

// openChannelEndpoint opens one client channel with the given id above
// cli and wraps it as an Endpoint.
func openChannelEndpoint(cli xk.Protocol, id int) (Endpoint, error) {
	clientApp := xk.NewApp("client/app", nil)
	s, err := cli.Open(clientApp, xk.NewParticipants(
		xk.NewParticipant(ip.ProtoRDG, channel.ID(id)),
		xk.NewParticipant(ServerAddr),
	))
	if err != nil {
		return nil, err
	}
	caller, ok := s.(interface {
		Call(*msg.Msg) (*msg.Msg, error)
	})
	if !ok {
		return nil, fmt.Errorf("channel endpoint: session %T has no Call", s)
	}
	return &channelEndpoint{s: caller}, nil
}

func (e *channelEndpoint) RoundTrip(payload []byte) error {
	m := msg.New(payload)
	m.MustPush([]byte{'n'})
	_, err := e.s.Call(m)
	return err
}

func (e *channelEndpoint) Echo(payload []byte) ([]byte, error) {
	m := msg.New(payload)
	m.MustPush([]byte{'e'})
	reply, err := e.s.Call(m)
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// ---- Push endpoints: VIP alone, FRAGMENT-VIP (Table III rows 1–2), UDP (§1) ----

// pushEndpoint measures round trips over protocols with no request/reply
// notion: the client pushes, the server's app pushes a null message
// back, the client's app signals completion. The paper's Table III rows
// for VIP and FRAGMENT-VIP, and its §1 UDP/IP figure, are exactly this
// exchange.
type pushEndpoint struct {
	s     xk.Session
	reply chan *msg.Msg
}

// pushBack is the server app on every push rig.
func pushBack(s xk.Session, _ *msg.Msg) error { return s.Push(msg.Empty()) }

// deliver is the client app: the reply's arrival ends the round trip.
func (e *pushEndpoint) deliver(_ xk.Session, m *msg.Msg) error {
	select {
	case e.reply <- m:
	default:
	}
	return nil
}

func openPush(tb *Testbed, top string) error {
	cli, srv, err := tb.above(top)
	if err != nil {
		return err
	}
	serverApp := xk.NewApp("server/app", pushBack)
	serverApp.MaxMsg = 1500
	if err := srv.OpenEnable(serverApp, xk.LocalOnly(xk.NewParticipant(ip.ProtoRDG))); err != nil {
		return err
	}
	e := &pushEndpoint{reply: make(chan *msg.Msg, 1)}
	clientApp := xk.NewApp("client/app", e.deliver)
	clientApp.MaxMsg = 1500
	// The server pushes its null reply through a passively created
	// session, so enable reception on the client too.
	if err := cli.OpenEnable(clientApp, xk.LocalOnly(xk.NewParticipant(ip.ProtoRDG))); err != nil {
		return err
	}
	e.s, err = cli.Open(clientApp, xk.NewParticipants(
		xk.NewParticipant(ip.ProtoRDG),
		xk.NewParticipant(ServerAddr),
	))
	tb.End = e
	return err
}

func openUDP(tb *Testbed, top string) error {
	cli, srv, err := tb.above(top)
	if err != nil {
		return err
	}
	if err := srv.OpenEnable(xk.NewApp("server/echo", pushBack), xk.LocalOnly(xk.NewParticipant(udp.Port(7)))); err != nil {
		return err
	}
	e := &pushEndpoint{reply: make(chan *msg.Msg, 1)}
	e.s, err = cli.Open(xk.NewApp("client/app", e.deliver), xk.NewParticipants(
		xk.NewParticipant(udp.Port(40000)),
		xk.NewParticipant(ServerAddr, udp.Port(7)),
	))
	tb.End = e
	return err
}

func (e *pushEndpoint) RoundTrip(payload []byte) error {
	if err := e.s.Push(msg.New(payload)); err != nil {
		return err
	}
	select {
	case <-e.reply:
		return nil
	default:
		return fmt.Errorf("bench: push round trip: no reply (synchronous network expected)")
	}
}

func (e *pushEndpoint) Echo([]byte) ([]byte, error) {
	return nil, fmt.Errorf("bench: echo unsupported on push endpoint")
}

// ---- Sun RPC: SUN_SELECT over REQUEST_REPLY over FRAGMENT-VIP (§3.3) ----

// The program/version the bench server registers; the paper's point is
// that Sun RPC decomposes onto the same substrate, so the commands map
// onto procedures of a single program.
const (
	sunProg uint32 = 0x20000001
	sunVers uint32 = 1
)

type sunrpcEndpoint struct{ s *sunrpc.SelectSession }

func (e *sunrpcEndpoint) RoundTrip(payload []byte) error {
	_, err := e.s.Call(sunProg, sunVers, uint32(CmdNull), msg.New(payload))
	return err
}

func (e *sunrpcEndpoint) Echo(payload []byte) ([]byte, error) {
	reply, err := e.s.Call(sunProg, sunVers, uint32(CmdEcho), msg.New(payload))
	if err != nil {
		return nil, err
	}
	return reply.Bytes(), nil
}

// openSunRPC leaves AtMostOnce false: REQUEST_REPLY is zero-or-more, so
// retransmissions may re-execute.
func openSunRPC(tb *Testbed, top string) error {
	cli, srv := instances[*sunrpc.Select](tb, top)
	execs := new(atomic.Int64)
	srv.Register(sunProg, sunVers, uint32(CmdNull), func(_ *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.Empty(), nil
	})
	srv.Register(sunProg, sunVers, uint32(CmdEcho), func(args *msg.Msg) (*msg.Msg, error) {
		execs.Add(1)
		return msg.New(args.Bytes()), nil
	})
	tb.ServerExecs = execs.Load
	s, err := cli.Open(xk.NewApp("client/app", nil), toServer())
	if err != nil {
		return err
	}
	tb.shared(&sunrpcEndpoint{s: s.(*sunrpc.SelectSession)})
	return nil
}
