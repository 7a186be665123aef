package selectp_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/selectp"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/xk"
)

const (
	cmdEcho  uint16 = 1
	cmdFail  uint16 = 2
	cmdBlock uint16 = 3
)

type bed struct {
	clock    *event.FakeClock
	network  *sim.Network
	cs, ss   *selectp.Protocol
	cc, sc   *channel.Protocol // the client's and server's CHANNEL, under cs and ss
	unblock  chan struct{}
	inflight *sync.WaitGroup
}

func build(t *testing.T, netCfg sim.Config, scfg selectp.Config) *bed {
	t.Helper()
	clock := event.NewFake()
	client, server, network, err := stacks.TwoHosts(netCfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	mk := func(h *stacks.Host) (*selectp.Protocol, *channel.Protocol) {
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		hv, _ := h.IP.Control(xk.CtlGetMyHost, nil)
		f, err := fragment.New(h.Name+"/fragment", v, hv.(xk.IPAddr), fragment.Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		c, err := channel.New(h.Name+"/channel", f, channel.Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		s, err := selectp.New(h.Name+"/select", c, scfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	b := &bed{clock: clock, network: network, unblock: make(chan struct{}), inflight: &sync.WaitGroup{}}
	b.cs, b.cc = mk(client)
	b.ss, b.sc = mk(server)

	b.ss.Register(cmdEcho, func(_ uint16, args *msg.Msg) (*msg.Msg, error) {
		return msg.New(args.Bytes()), nil
	})
	b.ss.Register(cmdFail, func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		return nil, errors.New("handler failed")
	})
	b.ss.Register(cmdBlock, func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		b.inflight.Done()
		<-b.unblock
		return msg.Empty(), nil
	})
	return b
}

func open(t *testing.T, p *selectp.Protocol) *selectp.Session {
	t.Helper()
	s, err := p.Open(xk.NewApp("cli", nil), &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
	if err != nil {
		t.Fatal(err)
	}
	return s.(*selectp.Session)
}

func TestCallDispatchesByCommand(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	got, err := s.CallBytes(cmdEcho, []byte("procedure"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "procedure" {
		t.Fatalf("echo = %q", got)
	}
}

func TestLargeArguments(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	payload := msg.MakeData(16 * 1024)
	got, err := s.CallBytes(cmdEcho, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("16k echo mismatch")
	}
}

func TestHandlerErrorReportedViaStatus(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	_, err := s.Call(cmdFail, msg.Empty())
	var re *selectp.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Status != selectp.StatusError || re.Msg != "handler failed" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestUnknownCommandStatus(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	_, err := s.Call(999, msg.Empty())
	var re *selectp.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Status != selectp.StatusNoCommand {
		t.Fatalf("status = %d, want StatusNoCommand", re.Status)
	}
}

func TestDefaultHandler(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	b.ss.RegisterDefault(func(cmd uint16, _ *msg.Msg) (*msg.Msg, error) {
		return msg.New([]byte{byte(cmd)}), nil
	})
	s := open(t, b.cs)
	got, err := s.CallBytes(77, nil)
	if err != nil || len(got) != 1 || got[0] != 77 {
		t.Fatalf("default handler: %v, %v", got, err)
	}
}

func TestSessionCaching(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s1, s2 := open(t, b.cs), open(t, b.cs)
	if s1 != s2 {
		t.Fatal("second open did not return the cached session")
	}
}

func TestChannelPoolBlocksWhenExhausted(t *testing.T) {
	// "it blocks if there are none available" (§3.2): with 2 channels
	// and 2 calls parked in the server, a third call must not start
	// until one finishes.
	b := build(t, sim.Config{}, selectp.Config{NumChannels: 2})
	s := open(t, b.cs)

	b.inflight.Add(2)
	results := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Call(cmdBlock, msg.Empty())
			results <- err
		}()
	}
	b.inflight.Wait() // both channels are now parked in the handler

	if v, err := s.Control(xk.CtlFreeChannels, nil); err != nil || v.(int) != 0 {
		t.Fatalf("free channels = %v, %v; want 0", v, err)
	}
	third := make(chan error, 1)
	go func() {
		_, err := s.Call(cmdEcho, msg.Empty())
		third <- err
	}()
	select {
	case err := <-third:
		t.Fatalf("third call completed while pool exhausted: %v", err)
	default:
	}
	close(b.unblock)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-third; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsAcrossChannels(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{NumChannels: 4})
	s := open(t, b.cs)
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			payload := msg.MakeData(i * 13)
			got, err := s.CallBytes(cmdEcho, payload)
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("echo mismatch")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestControls(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	v, err := s.Control(xk.CtlGetPeerHost, nil)
	if err != nil || v.(xk.IPAddr) != xk.IP(10, 0, 0, 2) {
		t.Fatalf("peer = %v, %v", v, err)
	}
	v, err = s.Control(xk.CtlFreeChannels, nil)
	if err != nil || v.(int) != 8 {
		t.Fatalf("free channels = %v, %v", v, err)
	}
	v, err = b.cs.Control(xk.CtlGetMTU, nil)
	if err != nil || v.(int) <= 0 {
		t.Fatalf("mtu = %v, %v", v, err)
	}
}

func TestCloseReleasesChannels(t *testing.T) {
	b := build(t, sim.Config{}, selectp.Config{})
	s := open(t, b.cs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(cmdEcho, msg.Empty()); !errors.Is(err, xk.ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
	// A fresh open builds a new session.
	s2 := open(t, b.cs)
	if s2 == s {
		t.Fatal("closed session returned from cache")
	}
	if _, err := s2.Call(cmdEcho, msg.Empty()); err != nil {
		t.Fatal(err)
	}
}

// A SELECT handler that outlives its call over CHANNEL: SELECT replies
// from inside Demux and returns the reply's error, so the refused late
// reply comes back to CHANNEL as Demux's error. It is refused once,
// counted once, and answered by nothing else — in particular not by an
// error reply that the next call, waiting on the same channel, would
// take for its own.
func TestLateHandlerOverChannel(t *testing.T) {
	b := build(t, sim.Config{Async: true}, selectp.Config{NumChannels: 1})
	s := open(t, b.cs)
	call := func(command uint16, args string) <-chan error {
		done := make(chan error, 1)
		go func() {
			got, err := s.CallBytes(command, []byte(args))
			if err == nil && string(got) != args {
				err = fmt.Errorf("reply %q, want %q", got, args)
			}
			done <- err
		}()
		return done
	}
	drive := func(done <-chan error) error {
		for {
			select {
			case err := <-done:
				return err
			default:
				if b.clock.PendingCount() > 0 {
					b.clock.AdvanceToNext()
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	settle := func() {
		for b.network.DeliveriesInFlight() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}

	b.inflight.Add(1)
	done1 := call(cmdBlock, "")
	b.inflight.Wait() // handler 1 is parked
	if err := drive(done1); !errors.Is(err, xk.ErrTimeout) {
		t.Fatalf("call 1: %v, want a timeout with its handler parked", err)
	}
	settle()
	acks := b.sc.Stats().AcksSent
	done2 := call(cmdEcho, "second")
	for b.sc.Stats().AcksSent == acks {
		time.Sleep(100 * time.Microsecond) // call 2 waits, acknowledged, behind handler 1
	}
	close(b.unblock)
	for b.sc.Stats().StaleReplies == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := drive(done2); err != nil {
		t.Fatalf("call 2: %v, want its own reply", err)
	}
	settle()
	if st := b.sc.Stats(); st.RequestsServed != 2 || st.StaleReplies != 1 {
		t.Fatalf("served %d, stale replies %d; want 2 and 1", st.RequestsServed, st.StaleReplies)
	}
}
