package channel_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

const hlpProto ip.ProtoNum = 240

type bed struct {
	clock          *event.FakeClock
	client, server *stacks.Host
	network        *sim.Network
	inj            *wire.Injector // the segment's fault board
	cc, sc         *channel.Protocol
	sf             *fragment.Protocol
}

func build(t *testing.T, netCfg sim.Config, ccfg channel.Config) *bed {
	t.Helper()
	clock := event.NewFake()
	ccfg.Clock = clock
	netCfg.Clock = clock
	client, server, w, err := stacks.TwoHostsOn(wire.Injected(sim.Factory(netCfg)), clock)
	if err != nil {
		t.Fatal(err)
	}
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	b := &bed{clock: clock, client: client, server: server, network: sim.Unwrap(w), inj: w.(*wire.Injector)}
	mk := func(h *stacks.Host) (*channel.Protocol, *fragment.Protocol) {
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		hv, _ := h.IP.Control(xk.CtlGetMyHost, nil)
		f, err := fragment.New(h.Name+"/fragment", v, hv.(xk.IPAddr), fragment.Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		c, err := channel.New(h.Name+"/channel", f, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, f
	}
	b.cc, _ = mk(client)
	b.sc, b.sf = mk(server)
	return b
}

// echoServer registers an app on sc that replies to every request with
// its own payload (or an error for payloads starting with '!').
func echoServer(t *testing.T, sc *channel.Protocol) *int {
	t.Helper()
	count := 0
	app := xk.NewApp("srv", nil)
	app.Deliver = func(s xk.Session, m *msg.Msg) error {
		count++
		ss := s.(*channel.ServerSession)
		b := m.Bytes()
		if len(b) > 0 && b[0] == '!' {
			return ss.PushError("requested failure")
		}
		return ss.Push(msg.New(b))
	}
	if err := sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	return &count
}

func open(t *testing.T, cc *channel.Protocol, id uint16) *channel.Session {
	t.Helper()
	s, err := cc.Open(xk.NewApp("cli", nil), xk.NewParticipants(
		xk.NewParticipant(hlpProto, channel.ID(id)),
		xk.NewParticipant(xk.IP(10, 0, 0, 2)),
	))
	if err != nil {
		t.Fatal(err)
	}
	return s.(*channel.Session)
}

func TestRequestReply(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	served := echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	reply, err := s.Call(msg.New([]byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Bytes()) != "hello" {
		t.Fatalf("reply = %q", reply.Bytes())
	}
	if *served != 1 {
		t.Fatalf("served = %d", *served)
	}
}

func TestLargeRequestAndReply(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	payload := msg.MakeData(12 * 1024)
	reply, err := s.Call(msg.New(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Bytes(), payload) {
		t.Fatal("large echo mismatch")
	}
}

func TestRemoteError(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	_, err := s.Call(msg.New([]byte("!boom")))
	var re *channel.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Msg != "requested failure" {
		t.Fatalf("error text %q", re.Msg)
	}
}

func TestOneRequestPerChannel(t *testing.T) {
	b := build(t, sim.Config{LossRate: 1.0, Seed: 1}, channel.Config{MaxRetries: 100})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = s.Call(msg.Empty()) // blocks forever under total loss
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the goroutine enter Call
	if _, err := s.Call(msg.Empty()); err == nil {
		t.Fatal("second concurrent call on one channel accepted")
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	echoServer(t, b.sc)
	s0, s1 := open(t, b.cc, 0), open(t, b.cc, 1)
	r0, err := s0.Call(msg.New([]byte("zero")))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Call(msg.New([]byte("one")))
	if err != nil {
		t.Fatal(err)
	}
	if string(r0.Bytes()) != "zero" || string(r1.Bytes()) != "one" {
		t.Fatal("channel crosstalk")
	}
}

func TestAtMostOnceUnderLoss(t *testing.T) {
	b := build(t, sim.Config{LossRate: 0.25, Seed: 31}, channel.Config{MaxRetries: 50})
	served := echoServer(t, b.sc)
	done := make(chan error, 1)
	go func() {
		s := open(t, b.cc, 0)
		for i := 0; i < 15; i++ {
			payload := msg.MakeData(50 * (i + 1))
			reply, err := s.Call(msg.New(payload))
			if err != nil {
				done <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if !bytes.Equal(reply.Bytes(), payload) {
				done <- fmt.Errorf("call %d: corrupted reply", i)
				return
			}
		}
		done <- nil
	}()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if *served != 15 {
				t.Fatalf("handler ran %d times for 15 calls: at-most-once violated", *served)
			}
			return
		case <-deadline:
			t.Fatal("calls did not finish")
		default:
			b.clock.Advance(30 * time.Millisecond)
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestDuplicateRequestReplaysSavedReply(t *testing.T) {
	b := build(t, sim.Config{DupRate: 0.999, Seed: 8}, channel.Config{})
	served := echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	for i := 0; i < 5; i++ {
		if _, err := s.Call(msg.New([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if *served != 5 {
		t.Fatalf("handler ran %d times for 5 calls", *served)
	}
	if b.sc.Stats().DuplicateRequests == 0 {
		t.Fatal("duplicates not detected")
	}
}

func TestStepFunctionTimeout(t *testing.T) {
	// Verify the step function indirectly: with total loss, a
	// multi-fragment call must take longer (more fake-clock time)
	// before its first retransmission than a single-fragment call.
	b := build(t, sim.Config{}, channel.Config{
		RetransmitBase:    50 * time.Millisecond,
		RetransmitPerFrag: 20 * time.Millisecond,
		MaxRetries:        1,
	})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)

	small, err := s.TimeoutFor(100)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.TimeoutFor(12 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if small != 50*time.Millisecond {
		t.Fatalf("single-fragment timeout = %v, want 50ms", small)
	}
	if big <= small {
		t.Fatalf("multi-fragment timeout %v not larger than single-fragment %v", big, small)
	}
	// 12k in 1477-byte fragments is 9 fragments: base + 9*20ms.
	if want := 50*time.Millisecond + 9*20*time.Millisecond; big != want {
		t.Fatalf("multi-fragment timeout = %v, want %v", big, want)
	}
}

func TestClientRebootResetsServer(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	served := echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	if _, err := s.Call(msg.New([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	b.cc.Reboot()
	s2 := open(t, b.cc, 0)
	if _, err := s2.Call(msg.New([]byte("b"))); err != nil {
		t.Fatalf("call after reboot: %v", err)
	}
	if *served != 2 {
		t.Fatalf("served = %d, want 2", *served)
	}
}

func TestTimeoutWhenServerGone(t *testing.T) {
	b := build(t, sim.Config{LossRate: 1.0, Seed: 1}, channel.Config{MaxRetries: 2})
	echoServer(t, b.sc)
	done := make(chan error, 1)
	go func() {
		s := open(t, b.cc, 0)
		_, err := s.Call(msg.Empty())
		done <- err
	}()
	for i := 0; i < 200; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, xk.ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
			return
		default:
			b.clock.Advance(time.Second)
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("call never timed out")
}

func TestPushIsReliableDatagram(t *testing.T) {
	// "it is trivial to build a reliable datagram protocol on top of
	// CHANNEL" — Push is exactly that.
	b := build(t, sim.Config{}, channel.Config{})
	served := echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	if err := s.Push(msg.New([]byte("datagram"))); err != nil {
		t.Fatal(err)
	}
	if *served != 1 {
		t.Fatal("push did not reach the server")
	}
}

func TestSessionControls(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	echoServer(t, b.sc)
	s := open(t, b.cc, 3)
	if s.ID() != 3 {
		t.Fatalf("ID = %d", s.ID())
	}
	v, err := s.Control(xk.CtlGetPeerHost, nil)
	if err != nil || v.(xk.IPAddr) != xk.IP(10, 0, 0, 2) {
		t.Fatalf("peer = %v, %v", v, err)
	}
}

func TestExplicitAckWhileServerBusy(t *testing.T) {
	// "timeouts trigger retransmissions which sometime elicit explicit
	// acknowledgements": while the handler is still working, a
	// retransmitted request must get an ACK (stop the client's
	// retransmissions), not a re-execution and not silence.
	b := build(t, sim.Config{}, channel.Config{
		RetransmitBase: 50 * time.Millisecond,
		MaxRetries:     50,
	})
	block := make(chan struct{})
	var served int
	app := xk.NewApp("srv", nil)
	app.Deliver = func(s xk.Session, m *msg.Msg) error {
		served++
		ss := s.(*channel.ServerSession)
		go func() {
			<-block
			_ = ss.Push(msg.New([]byte("done")))
		}()
		return nil
	}
	if err := b.sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}

	s := open(t, b.cc, 0)
	done := make(chan error, 1)
	go func() {
		reply, err := s.Call(msg.New([]byte("slow request")))
		if err == nil && string(reply.Bytes()) != "done" {
			err = fmt.Errorf("reply %q", reply.Bytes())
		}
		done <- err
	}()

	// Let several client timeouts fire while the handler is parked.
	for i := 0; i < 6; i++ {
		b.clock.Advance(60 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	st := b.sc.Stats()
	if st.AcksSent == 0 {
		t.Fatal("busy server never sent an explicit ack")
	}
	if served != 1 {
		t.Fatalf("handler ran %d times while blocked", served)
	}
	if b.cc.Stats().AcksReceived == 0 {
		t.Fatal("client never recorded the ack")
	}
	close(block)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed after unblocking")
	}
	if served != 1 {
		t.Fatalf("handler ran %d times total", served)
	}
}
