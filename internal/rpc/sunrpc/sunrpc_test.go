package sunrpc_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/auth"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/rpc/sunrpc"
	"xkernel/internal/settle"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

const (
	progCalc uint32 = 200001
	versCalc uint32 = 2
	procAdd  uint32 = 1
	procEcho uint32 = 2
	procFail uint32 = 3
)

// composition names the request/reply substrate and optional auth layer
// under SUN_SELECT.
type composition struct {
	lower string // "reqrep" or "channel"
	mech  func() auth.Mechanism
}

type bed struct {
	clock              *event.FakeClock
	inj                *wire.Injector // the segment's fault board
	cs                 *sunrpc.Select
	ss                 *sunrpc.Select
	cliLower, srvLower any // *sunrpc.ReqRep or *channel.Protocol for stats
}

func build(t *testing.T, netCfg sim.Config, comp composition) *bed {
	t.Helper()
	clock := event.NewFake()
	netCfg.Clock = clock
	client, server, w, err := stacks.TwoHostsOn(wire.Injected(sim.Factory(netCfg)), clock)
	if err != nil {
		t.Fatal(err)
	}
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	b := &bed{clock: clock, inj: w.(*wire.Injector)}

	mk := func(h *stacks.Host) (*sunrpc.Select, any) {
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		hv, _ := h.IP.Control(xk.CtlGetMyHost, nil)
		f, err := fragment.New(h.Name+"/fragment", v, hv.(xk.IPAddr), fragment.Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		var lower xk.Protocol
		var raw any
		switch comp.lower {
		case "reqrep":
			rr, err := sunrpc.NewReqRep(h.Name+"/reqrep", f, sunrpc.ReqRepConfig{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			lower, raw = rr, rr
		case "channel":
			c, err := channel.New(h.Name+"/channel", f, channel.Config{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			lower, raw = c, c
		default:
			t.Fatalf("unknown lower %q", comp.lower)
		}
		if comp.mech != nil {
			lower = auth.NewLayer(h.Name+"/auth", lower, comp.mech())
		}
		s, err := sunrpc.NewSelect(h.Name+"/sunselect", lower, sunrpc.SelectConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return s, raw
	}
	b.cs, b.cliLower = mk(client)
	b.ss, b.srvLower = mk(server)

	b.ss.Register(progCalc, versCalc, procAdd, func(args *msg.Msg) (*msg.Msg, error) {
		ab := args.Bytes()
		if len(ab) != 8 {
			return nil, errors.New("want two uint32s")
		}
		sum := uint32(ab[0])<<24 | uint32(ab[1])<<16 | uint32(ab[2])<<8 | uint32(ab[3])
		sum += uint32(ab[4])<<24 | uint32(ab[5])<<16 | uint32(ab[6])<<8 | uint32(ab[7])
		return msg.New([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}), nil
	})
	b.ss.Register(progCalc, versCalc, procEcho, func(args *msg.Msg) (*msg.Msg, error) {
		return msg.New(args.Bytes()), nil
	})
	b.ss.Register(progCalc, versCalc, procFail, func(_ *msg.Msg) (*msg.Msg, error) {
		return nil, errors.New("proc failed")
	})
	return b
}

func open(t *testing.T, p *sunrpc.Select) *sunrpc.SelectSession {
	t.Helper()
	s, err := p.Open(xk.NewApp("cli", nil), &xk.Participants{Remote: xk.NewParticipant(xk.IP(10, 0, 0, 2))})
	if err != nil {
		t.Fatal(err)
	}
	return s.(*sunrpc.SelectSession)
}

// compositions under test: the mix-and-match matrix.
var compositions = []struct {
	name string
	comp composition
}{
	{"reqrep", composition{lower: "reqrep"}},
	{"channel", composition{lower: "channel"}},
	{"reqrep+none", composition{lower: "reqrep", mech: func() auth.Mechanism { return auth.None{} }}},
	{"reqrep+sys", composition{lower: "reqrep", mech: func() auth.Mechanism {
		return &auth.Sys{Machine: "client", UID: 100, GIDs: []uint32{10, 20}}
	}}},
	{"reqrep+digest", composition{lower: "reqrep", mech: func() auth.Mechanism {
		return &auth.Digest{Key: []byte("shared secret"), Name: "client"}
	}}},
	{"channel+digest", composition{lower: "channel", mech: func() auth.Mechanism {
		return &auth.Digest{Key: []byte("shared secret"), Name: "client"}
	}}},
}

func TestCallAcrossAllCompositions(t *testing.T) {
	for _, c := range compositions {
		t.Run(c.name, func(t *testing.T) {
			b := build(t, sim.Config{}, c.comp)
			s := open(t, b.cs)
			got, err := s.CallBytes(progCalc, versCalc, procAdd, []byte{0, 0, 0, 40, 0, 0, 0, 2})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{0, 0, 0, 42}) {
				t.Fatalf("40+2 = %v", got)
			}
		})
	}
}

func TestLargeArgumentsViaFragment(t *testing.T) {
	// The §5 point: SUN_SELECT + REQUEST_REPLY composed with FRAGMENT
	// moves large messages without IP fragmentation.
	for _, c := range compositions {
		t.Run(c.name, func(t *testing.T) {
			b := build(t, sim.Config{}, c.comp)
			s := open(t, b.cs)
			payload := msg.MakeData(8 * 1024)
			got, err := s.CallBytes(progCalc, versCalc, procEcho, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("8k echo mismatch")
			}
		})
	}
}

func TestDispatchErrors(t *testing.T) {
	b := build(t, sim.Config{}, composition{lower: "reqrep"})
	s := open(t, b.cs)

	_, err := s.Call(999999, 1, 1, msg.Empty())
	var se *sunrpc.SelectError
	if !errors.As(err, &se) || se.Status != sunrpc.StatusProgUnavail {
		t.Fatalf("unknown program: %v", err)
	}
	_, err = s.Call(progCalc, 9, procAdd, msg.Empty())
	if !errors.As(err, &se) || se.Status != sunrpc.StatusProgMismatch {
		t.Fatalf("bad version: %v", err)
	}
	if se.Low != versCalc || se.High != versCalc {
		t.Fatalf("mismatch range %d-%d", se.Low, se.High)
	}
	_, err = s.Call(progCalc, versCalc, 999, msg.Empty())
	if !errors.As(err, &se) || se.Status != sunrpc.StatusProcUnavail {
		t.Fatalf("unknown proc: %v", err)
	}
	_, err = s.Call(progCalc, versCalc, procFail, msg.Empty())
	if !errors.As(err, &se) || se.Status != sunrpc.StatusSystemErr || se.Msg != "proc failed" {
		t.Fatalf("handler failure: %v", err)
	}
}

func TestZeroOrMoreSemantics(t *testing.T) {
	// Under duplication, REQUEST_REPLY re-executes — the semantic
	// difference from CHANNEL that makes the two swappable but not
	// equivalent.
	var executions = func(b *bed) int64 { return b.srvLower.(*sunrpc.ReqRep).Stats().Executions }
	b := build(t, sim.Config{DupRate: 0.999, Seed: 9}, composition{lower: "reqrep"})
	s := open(t, b.cs)
	for i := 0; i < 5; i++ {
		if _, err := s.CallBytes(progCalc, versCalc, procEcho, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := executions(b); got <= 5 {
		t.Fatalf("executions = %d; duplication should re-execute under zero-or-more semantics", got)
	}
}

func TestChannelUpgradesToAtMostOnce(t *testing.T) {
	// The same workload over CHANNEL executes exactly once per call.
	b := build(t, sim.Config{DupRate: 0.999, Seed: 9}, composition{lower: "channel"})
	s := open(t, b.cs)
	for i := 0; i < 5; i++ {
		if _, err := s.CallBytes(progCalc, versCalc, procEcho, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.srvLower.(*channel.Protocol).Stats().RequestsServed; got != 5 {
		t.Fatalf("served = %d, want exactly 5 (at-most-once)", got)
	}
}

func TestReqRepRecoversFromLoss(t *testing.T) {
	b := build(t, sim.Config{LossRate: 0.3, Seed: 14}, composition{lower: "reqrep"})
	done := make(chan error, 1)
	go func() {
		s := open(t, b.cs)
		for i := 0; i < 10; i++ {
			payload := msg.MakeData(100 * (i + 1))
			got, err := s.CallBytes(progCalc, versCalc, procEcho, payload)
			if err != nil {
				done <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload) {
				done <- fmt.Errorf("call %d: echo mismatch", i)
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
			return
		case <-deadline:
			t.Fatal("calls did not finish")
		default:
			b.clock.Advance(30 * time.Millisecond)
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestConcurrentCallsUsePool(t *testing.T) {
	b := build(t, sim.Config{}, composition{lower: "reqrep"})
	s := open(t, b.cs)
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		go func(i int) {
			payload := msg.MakeData(i * 31)
			got, err := s.CallBytes(progCalc, versCalc, procEcho, payload)
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("echo mismatch")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 24; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionSurfaceOperations(t *testing.T) {
	b := build(t, sim.Config{}, composition{lower: "reqrep"})
	s := open(t, b.cs)
	if s.Remote() != xk.IP(10, 0, 0, 2) {
		t.Fatalf("Remote = %v", s.Remote())
	}
	v, err := s.Control(xk.CtlGetPeerHost, nil)
	if err != nil || v.(xk.IPAddr) != xk.IP(10, 0, 0, 2) {
		t.Fatalf("peer = %v, %v", v, err)
	}
	v, err = s.Control(xk.CtlFreeChannels, nil)
	if err != nil || v.(int) != 8 {
		t.Fatalf("free sessions = %v, %v", v, err)
	}
	// Push routes to 0/0/0, which is unregistered: a clean error, not
	// a hang.
	if err := s.Push(msg.Empty()); err == nil {
		t.Fatal("push to unregistered 0/0/0 succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(progCalc, versCalc, procEcho, msg.Empty()); !errors.Is(err, xk.ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
	// Reopen works.
	s2 := open(t, b.cs)
	if _, err := s2.CallBytes(progCalc, versCalc, procEcho, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// REQUEST_REPLY's defaults (ReqRepConfig), which build keeps.
const (
	rrRetransmit = 50 * time.Millisecond
	rrMaxRetries = 8
)

var (
	clientMAC = xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	serverMAC = xk.EthAddr{0x02, 0, 0, 0, 0, 2}
)

// drivenCall makes one echo call on its own goroutine and advances the
// fake clock, to its next deadline, only while that goroutine is parked.
// It returns the call's error and the fake time the call took.
func drivenCall(t *testing.T, b *bed) (error, time.Duration) {
	t.Helper()
	s := open(t, b.cs)
	type result struct {
		err     error
		elapsed time.Duration
	}
	watch := make(chan *settle.Watch, 1)
	done := make(chan result, 1)
	go func() {
		watch <- settle.WatchSelf()
		start := b.clock.Now()
		_, err := s.CallBytes(progCalc, versCalc, procEcho, []byte("y"))
		done <- result{err, b.clock.Now().Sub(start)}
	}()
	w := <-watch
	for {
		select {
		case r := <-done:
			return r.err, r.elapsed
		default:
			if w.Parked() && b.clock.PendingCount() > 0 {
				b.clock.AdvanceToNext()
			} else {
				runtime.Gosched()
			}
		}
	}
}

// REQUEST_REPLY counts what its schedule does, under scripted loss: a
// lost request costs one retransmission and runs once; a lost reply
// costs one retransmission and runs twice, because zero-or-more
// re-executes; and a wire that loses everything times the call out after
// exactly MaxRetries+1 waits of Retransmit, MaxRetries of them
// retransmitting.
func TestReqRepStatsCountRetransmits(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		src, dst                xk.EthAddr // the direction dropped; zero: both
		drops                   int
		wantErr                 error
		retransmits, executions int64
		elapsed                 time.Duration // checked when wantErr is set
	}{
		{"first request dropped", clientMAC, serverMAC, 1, nil, 1, 1, 0},
		{"first reply dropped", serverMAC, clientMAC, 1, nil, 1, 2, 0},
		{"every frame dropped", xk.EthAddr{}, xk.EthAddr{}, 1 << 20, xk.ErrTimeout, rrMaxRetries, 0, (rrMaxRetries + 1) * rrRetransmit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := build(t, sim.Config{}, composition{lower: "reqrep"})
			b.inj.DropWhere(func(src, dst xk.EthAddr) bool {
				return tc.src == (xk.EthAddr{}) || src == tc.src && dst == tc.dst
			}, tc.drops)
			err, elapsed := drivenCall(t, b)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("call: %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil && elapsed != tc.elapsed {
				t.Fatalf("timed out after %v of fake time, want %v", elapsed, tc.elapsed)
			}
			cli := b.cliLower.(*sunrpc.ReqRep).Stats()
			srv := b.srvLower.(*sunrpc.ReqRep).Stats()
			if cli.Calls != 1 || cli.Retransmits != tc.retransmits || srv.Executions != tc.executions {
				t.Fatalf("client %+v, server executions %d; want 1 call, %d retransmits, %d executions",
					cli, srv.Executions, tc.retransmits, tc.executions)
			}
		})
	}
}
