package mrpc_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

const (
	cmdEcho uint16 = 1
	cmdFail uint16 = 2
	cmdSize uint16 = 3
)

// testbed builds client and server M.RPC instances over the requested
// lower layer: "eth", "ip", or "vip". The segment sits behind the
// returned injector, the board a test scripts its drops on.
func testbed(t *testing.T, lower string, netCfg sim.Config, clock event.Clock, cfg mrpc.Config) (cli, srv *mrpc.Protocol, inj *wire.Injector) {
	t.Helper()
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	client, server, w, err := stacks.TwoHostsOn(wire.Injected(sim.Factory(netCfg)), clock)
	if err != nil {
		t.Fatal(err)
	}
	// Static ARP entries keep opens from blocking on resolution when the
	// network is configured lossy.
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	cfg.Clock = clock
	build := func(h *stacks.Host, name string) *mrpc.Protocol {
		var llp xk.Protocol
		switch lower {
		case "eth":
			llp = vip.NewEthMap(name+"/ethmap", h.Eth, h.ARP)
		case "ip":
			llp = h.IP
		case "vip":
			v, err := vip.New(name+"/vip", h.Eth, h.IP, h.ARP)
			if err != nil {
				t.Fatal(err)
			}
			llp = v
		default:
			t.Fatalf("unknown lower layer %q", lower)
		}
		p, err := mrpc.New(name+"/mrpc", llp, hostIP(h), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cli = build(client, "client")
	srv = build(server, "server")

	srv.Register(cmdEcho, func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		return msg.New(args.Bytes()), nil
	})
	srv.Register(cmdFail, func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		return nil, errors.New("deliberate failure")
	})
	srv.Register(cmdSize, func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		return msg.New([]byte{byte(args.Len() >> 8), byte(args.Len())}), nil
	})
	return cli, srv, w.(*wire.Injector)
}

func hostIP(h *stacks.Host) xk.IPAddr {
	v, err := h.IP.Control(xk.CtlGetMyHost, nil)
	if err != nil {
		panic(err)
	}
	return v.(xk.IPAddr)
}

func open(t *testing.T, cli *mrpc.Protocol, server xk.IPAddr) *mrpc.Session {
	t.Helper()
	app := xk.NewApp("app", nil)
	app.MaxMsg = 1500
	s, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(server)})
	if err != nil {
		t.Fatal(err)
	}
	return s.(*mrpc.Session)
}

func TestNullCallAllLowerLayers(t *testing.T) {
	for _, lower := range []string{"eth", "ip", "vip"} {
		t.Run(lower, func(t *testing.T) {
			cli, _, _ := testbed(t, lower, sim.Config{}, nil, mrpc.Config{})
			s := open(t, cli, xk.IP(10, 0, 0, 2))
			reply, err := s.Call(cmdEcho, msg.Empty())
			if err != nil {
				t.Fatal(err)
			}
			if reply.Len() != 0 {
				t.Fatalf("null call returned %d bytes", reply.Len())
			}
		})
	}
}

func TestEchoPayloadSizes(t *testing.T) {
	cli, _, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	for _, n := range []int{1, 100, 1463, 1464, 1465, 4096, 8192, 16384} {
		payload := msg.MakeData(n)
		got, err := s.CallBytes(cmdEcho, payload)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: echo mismatch (got %d bytes)", n, len(got))
		}
	}
}

func TestOversizedCallRejected(t *testing.T) {
	cli, _, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	_, err := s.Call(cmdEcho, msg.New(make([]byte, 17000)))
	if !errors.Is(err, xk.ErrMsgTooBig) {
		t.Fatalf("got %v, want ErrMsgTooBig", err)
	}
}

func TestRemoteError(t *testing.T) {
	cli, _, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	_, err := s.Call(cmdFail, msg.Empty())
	var re *mrpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Msg != "deliberate failure" {
		t.Fatalf("remote error text %q", re.Msg)
	}
}

func TestUnknownCommand(t *testing.T) {
	cli, _, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	if _, err := s.Call(99, msg.Empty()); err == nil {
		t.Fatal("unregistered command should fail")
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{LossRate: 0.3, Seed: 7}, clock, mrpc.Config{MaxRetries: 30})

	done := make(chan error, 1)
	go func() {
		// Open inside the goroutine: ARP resolution may itself need
		// retransmissions under loss, and the fake clock only
		// advances from the main goroutine below.
		app := xk.NewApp("app", nil)
		app.MaxMsg = 1500
		sess, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
		if err != nil {
			done <- err
			return
		}
		s := sess.(*mrpc.Session)
		for i := 0; i < 20; i++ {
			if _, err := s.CallBytes(cmdEcho, msg.MakeData(100*(i+1))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if srv.Stats().RequestsServed != 20 {
				t.Fatalf("served %d requests, want 20 (at-most-once violated or lost)", srv.Stats().RequestsServed)
			}
			return
		case <-deadline:
			t.Fatal("calls did not complete")
		default:
			clock.Advance(25 * time.Millisecond)
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestAtMostOnceUnderDuplication(t *testing.T) {
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{DupRate: 0.5, Seed: 11}, clock, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	for i := 0; i < 10; i++ {
		if _, err := s.Call(cmdEcho, msg.New(msg.MakeData(64))); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.RequestsServed != 10 {
		t.Fatalf("handler ran %d times for 10 calls: at-most-once violated", st.RequestsServed)
	}
}

func TestDuplicateRequestReplaysReply(t *testing.T) {
	// Force duplication of every frame; the server must detect the
	// duplicated requests rather than re-executing them.
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{DupRate: 0.999, Seed: 3}, clock, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	for i := 0; i < 5; i++ {
		if _, err := s.Call(cmdEcho, msg.New([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.RequestsServed != 5 {
		t.Fatalf("handler ran %d times for 5 calls", st.RequestsServed)
	}
	if st.DuplicateRequests == 0 {
		t.Fatal("expected duplicate requests to be detected")
	}
}

func TestClientRebootResetsServerState(t *testing.T) {
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{}, clock, mrpc.Config{})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	if _, err := s.Call(cmdEcho, msg.Empty()); err != nil {
		t.Fatal(err)
	}
	// The client reboots: sequence numbers restart, but the new boot
	// id tells the server not to treat them as duplicates.
	cli.Reboot()
	s2 := open(t, cli, xk.IP(10, 0, 0, 2))
	if _, err := s2.Call(cmdEcho, msg.Empty()); err != nil {
		t.Fatalf("call after reboot: %v", err)
	}
	if srv.Stats().RequestsServed != 2 {
		t.Fatalf("served %d, want 2", srv.Stats().RequestsServed)
	}
}

func TestConcurrentCallsBoundedByChannels(t *testing.T) {
	cli, srv, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{NumChannels: 4})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	const calls = 64
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := s.CallBytes(cmdEcho, msg.MakeData(i))
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().RequestsServed; got != calls {
		t.Fatalf("served %d, want %d", got, calls)
	}
}

func TestSymmetricBidirectionalCalls(t *testing.T) {
	// Sprite RPC is symmetric: every host is both client and server.
	// Drive calls in both directions concurrently over the same pair
	// of protocol instances.
	cli, srv, _ := testbed(t, "vip", sim.Config{}, nil, mrpc.Config{})
	cli.Register(cmdEcho, func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		return msg.New(args.Bytes()), nil
	})
	forward := open(t, cli, xk.IP(10, 0, 0, 2))
	reverse := func() *mrpc.Session {
		app := xk.NewApp("app", nil)
		app.MaxMsg = 1500
		s, err := srv.Open(app, &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 1))})
		if err != nil {
			t.Fatal(err)
		}
		return s.(*mrpc.Session)
	}()

	const calls = 40
	errs := make(chan error, 2*calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := forward.CallBytes(cmdEcho, msg.MakeData(i*17))
			errs <- err
		}(i)
		go func(i int) {
			_, err := reverse.CallBytes(cmdEcho, msg.MakeData(i*13))
			errs <- err
		}(i)
	}
	for i := 0; i < 2*calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().RequestsServed; got != calls {
		t.Fatalf("server served %d, want %d", got, calls)
	}
	if got := cli.Stats().RequestsServed; got != calls {
		t.Fatalf("client served %d, want %d", got, calls)
	}
}

func TestSelectiveFragmentRetransmission(t *testing.T) {
	// A lossy multi-fragment request must eventually complete via the
	// explicit partial acknowledgements (frag_mask) rather than by
	// blind full retransmission alone: assert acks flowed both ways.
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{LossRate: 0.35, Seed: 23}, clock, mrpc.Config{MaxRetries: 60})
	done := make(chan error, 1)
	go func() {
		app := xk.NewApp("app", nil)
		app.MaxMsg = 1500
		sess, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
		if err != nil {
			done <- err
			return
		}
		_, err = sess.(*mrpc.Session).CallBytes(cmdEcho, msg.MakeData(14*1024))
		done <- err
	}()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if srv.Stats().AcksSent == 0 {
				t.Fatal("no partial acknowledgements were sent")
			}
			if cli.Stats().AcksReceived == 0 {
				t.Fatal("client never consumed an acknowledgement")
			}
			if srv.Stats().RequestsServed != 1 {
				t.Fatalf("served %d, want 1", srv.Stats().RequestsServed)
			}
			return
		case <-deadline:
			t.Fatal("call never completed")
		default:
			clock.Advance(40 * time.Millisecond)
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestCallTimesOutWhenServerUnreachable(t *testing.T) {
	clock := event.NewFake()
	cli, _, _ := testbed(t, "vip", sim.Config{LossRate: 1.0, Seed: 1}, clock, mrpc.Config{MaxRetries: 2})
	done := make(chan error, 1)
	go func() {
		app := xk.NewApp("app", nil)
		app.MaxMsg = 1500
		sess, err := cli.Open(app, &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
		if err != nil {
			done <- err
			return
		}
		_, err = sess.(*mrpc.Session).Call(cmdEcho, msg.Empty())
		done <- err
	}()
	for i := 0; i < 100; i++ {
		clock.Advance(time.Second)
		select {
		case err := <-done:
			if !errors.Is(err, xk.ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("call never timed out")
}

// A reply too long to frame fails its own call, and only that call: the
// server ends the execution, so the channel is not left waiting for a
// reply that will never be recorded, and the next call on it is served.
func TestUnframeableReplyFailsOnlyItsCall(t *testing.T) {
	clock := event.NewFake()
	cli, srv, _ := testbed(t, "vip", sim.Config{}, clock, mrpc.Config{NumChannels: 1, MaxRetries: 2})
	const cmdHuge uint16 = 4
	srv.Register(cmdHuge, func(uint16, *msg.Msg) (*msg.Msg, error) {
		return msg.New(make([]byte, 16*1024+1)), nil
	})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	call := func(command uint16) ([]byte, error) {
		t.Helper()
		done := make(chan error, 1)
		var reply []byte
		go func() {
			var err error
			reply, err = s.CallBytes(command, []byte("ping"))
			done <- err
		}()
		for {
			select {
			case err := <-done:
				return reply, err
			default:
				if clock.PendingCount() > 0 {
					clock.AdvanceToNext()
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	if _, err := call(cmdHuge); !errors.Is(err, xk.ErrTimeout) {
		t.Fatalf("the unframeable reply's call: %v, want ErrTimeout", err)
	}
	if reply, err := call(cmdEcho); err != nil || string(reply) != "ping" {
		t.Fatalf("the next call on the channel: %q, %v; want its echo", reply, err)
	}
	if st := srv.Stats(); st.RequestsServed != 2 || st.StaleReplies != 0 {
		t.Fatalf("served %d, stale replies %d; want 2 and 0", st.RequestsServed, st.StaleReplies)
	}
}
