package fragment_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/ip"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

const hlpProto ip.ProtoNum = 230

type bed struct {
	clock          *event.FakeClock
	client, server *stacks.Host
	network        *sim.Network
	inj            *wire.Injector // the segment's fault board
	cf, sf         *fragment.Protocol
}

// twoHosts is stacks.TwoHosts with the segment behind a wire.Injector.
func twoHosts(t *testing.T, netCfg sim.Config, clock event.Clock) (client, server *stacks.Host, inj *wire.Injector) {
	t.Helper()
	if netCfg.Clock == nil {
		netCfg.Clock = clock
	}
	client, server, w, err := stacks.TwoHostsOn(wire.Injected(sim.Factory(netCfg)), clock)
	if err != nil {
		t.Fatal(err)
	}
	return client, server, w.(*wire.Injector)
}

// build assembles FRAGMENT over VIP on two hosts. Fault-injection tests
// pre-seed ARP so only FRAGMENT's own recovery is on trial.
func build(t *testing.T, netCfg sim.Config, cfg fragment.Config) *bed {
	t.Helper()
	clock := event.NewFake()
	cfg.Clock = clock
	client, server, inj := twoHosts(t, netCfg, clock)
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	mk := func(h *stacks.Host) *fragment.Protocol {
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fragment.New(h.Name+"/fragment", v, hostIP(h), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return &bed{
		clock: clock, client: client, server: server, network: sim.Unwrap(inj), inj: inj,
		cf: mk(client), sf: mk(server),
	}
}

func hostIP(h *stacks.Host) xk.IPAddr {
	v, _ := h.IP.Control(xk.CtlGetMyHost, nil)
	return v.(xk.IPAddr)
}

// sink registers a collecting app on f.
func sink(t *testing.T, f *fragment.Protocol) *[][]byte {
	t.Helper()
	out := &[][]byte{}
	app := xk.NewApp("sink", func(s xk.Session, m *msg.Msg) error {
		*out = append(*out, m.Bytes())
		return nil
	})
	if err := f.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	return out
}

func openSession(t *testing.T, f *fragment.Protocol, dst xk.IPAddr) xk.Session {
	t.Helper()
	s, err := f.Open(xk.NewApp("src", nil), xk.NewParticipants(
		xk.NewParticipant(hlpProto),
		xk.NewParticipant(dst),
	))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleFragmentDelivery(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	payload := msg.MakeData(500)
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0], payload) {
		t.Fatalf("delivered %d messages", len(*got))
	}
	st := b.cf.Stats()
	if st.FragmentsSent != 1 {
		t.Fatalf("FragmentsSent = %d", st.FragmentsSent)
	}
}

func TestMultiFragmentDelivery(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	payload := msg.MakeData(16 * 1024)
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0], payload) {
		t.Fatalf("delivered %d messages", len(*got))
	}
	if b.cf.Stats().FragmentsSent < 11 {
		t.Fatalf("FragmentsSent = %d, want >= 11", b.cf.Stats().FragmentsSent)
	}
	if b.sf.Stats().MessagesDelivered != 1 {
		t.Fatalf("MessagesDelivered = %d", b.sf.Stats().MessagesDelivered)
	}
}

func TestEmptyMessage(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.Empty()); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || len((*got)[0]) != 0 {
		t.Fatalf("delivered %v", *got)
	}
}

func TestOversizedRejected(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(make([]byte, 30000))); !errors.Is(err, xk.ErrMsgTooBig) {
		t.Fatalf("got %v, want ErrMsgTooBig", err)
	}
}

func TestLostFragmentRecoveredByResendRequest(t *testing.T) {
	b := build(t, sim.Config{LossRate: 0.4, Seed: 17}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	payload := msg.MakeData(12 * 1024)
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	// Drive the receiver's gap timers (and any further loss recovery).
	for i := 0; i < 20 && len(*got) == 0; i++ {
		b.clock.Advance(50 * time.Millisecond)
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0], payload) {
		t.Fatalf("message not recovered: %d delivered", len(*got))
	}
	if b.sf.Stats().ResendRequestsSent == 0 {
		t.Fatal("no resend requests were sent")
	}
	if b.cf.Stats().ResendsHonored == 0 {
		t.Fatal("sender honored no resend requests")
	}
}

func TestNoPositiveAcks(t *testing.T) {
	// The defining FRAGMENT property: a fully delivered message must
	// generate zero packets from receiver back to sender.
	b := build(t, sim.Config{}, fragment.Config{})
	sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	b.network.ResetStats()
	if err := s.Push(msg.New(msg.MakeData(16 * 1024))); err != nil {
		t.Fatal(err)
	}
	frames := b.network.Stats().FramesSent
	b.clock.Advance(5 * time.Second) // let all hold/gap timers run out
	if got := b.network.Stats().FramesSent; got != frames {
		t.Fatalf("%d extra frames after delivery: receiver acked", got-frames)
	}
}

func TestAbandonAfterGapRetries(t *testing.T) {
	// Lose everything after the first fragment: the receiver must ask,
	// give up, and abandon — delivery is not guaranteed.
	b := build(t, sim.Config{LossRate: 0.95, Seed: 5}, fragment.Config{GapRetries: 3})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(msg.MakeData(8 * 1024))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.clock.Advance(100 * time.Millisecond)
	}
	st := b.sf.Stats()
	if len(*got) == 0 && st.MessagesAbandoned == 0 && st.FragmentsReceived > 0 {
		t.Fatal("incomplete message neither delivered nor abandoned")
	}
}

func TestResendRequestForDiscardedMessageIgnored(t *testing.T) {
	// The sender's hold timer fires before the receiver asks: the
	// request must be ignored (persistence, not reliability).
	b := build(t, sim.Config{LossRate: 0.4, Seed: 17}, fragment.Config{
		SendHold:   10 * time.Millisecond,
		GapTimeout: 100 * time.Millisecond,
	})
	sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if err := s.Push(msg.New(msg.MakeData(12 * 1024))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.clock.Advance(100 * time.Millisecond)
	}
	if b.cf.Stats().ResendsExpired == 0 {
		t.Fatal("expected at least one resend request after discard")
	}
}

func TestRetransmissionGetsFreshSequenceNumber(t *testing.T) {
	// "FRAGMENT treats the second incarnation of the message as an
	// independent message": two pushes of the same payload are two
	// messages.
	b := build(t, sim.Config{}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	payload := msg.MakeData(100)
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2 (independent messages)", len(*got))
	}
	if b.cf.Stats().MessagesSent != 2 {
		t.Fatalf("MessagesSent = %d", b.cf.Stats().MessagesSent)
	}
}

func TestOutOfOrderFragmentsReassemble(t *testing.T) {
	b := build(t, sim.Config{ReorderRate: 0.9, Seed: 4}, fragment.Config{})
	got := sink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	payload := msg.MakeData(10 * 1024)
	if err := s.Push(msg.New(payload)); err != nil {
		t.Fatal(err)
	}
	b.network.Flush()
	for i := 0; i < 10 && len(*got) == 0; i++ {
		b.clock.Advance(50 * time.Millisecond)
		b.network.Flush()
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0], payload) {
		t.Fatal("reordered message not delivered intact")
	}
}

func TestControls(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	v, err := b.cf.Control(xk.CtlHLPMaxMsg, nil)
	if err != nil || v.(int) != 1500 {
		t.Fatalf("CtlHLPMaxMsg = %v, %v", v, err)
	}
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	v, err = s.Control(xk.CtlGetPeerHost, nil)
	if err != nil || v.(xk.IPAddr) != xk.IP(10, 0, 0, 2) {
		t.Fatalf("peer = %v, %v", v, err)
	}
	v, err = s.Control(xk.CtlGetOptPacket, nil)
	if err != nil || v.(int) != 1500-fragment.HeaderLen {
		t.Fatalf("opt packet = %v, %v", v, err)
	}
	v, err = s.Control(xk.CtlGetMyProto, nil)
	if err != nil || v.(uint32) != uint32(hlpProto) {
		t.Fatalf("proto = %v, %v", v, err)
	}
}

func TestSessionCaching(t *testing.T) {
	b := build(t, sim.Config{}, fragment.Config{})
	s1 := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	s2 := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	if s1 != s2 {
		t.Fatal("second open did not return the cached session")
	}
}

func TestTwoHLPsShareFragment(t *testing.T) {
	// FRAGMENT is "meant to be used by multiple high-level protocols":
	// two protocol numbers, independent delivery.
	b := build(t, sim.Config{}, fragment.Config{})
	const otherProto ip.ProtoNum = 231
	var gotA, gotB int
	appA := xk.NewApp("a", func(s xk.Session, m *msg.Msg) error { gotA++; return nil })
	appB := xk.NewApp("b", func(s xk.Session, m *msg.Msg) error { gotB++; return nil })
	if err := b.sf.OpenEnable(appA, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	if err := b.sf.OpenEnable(appB, xk.LocalOnly(xk.NewParticipant(otherProto))); err != nil {
		t.Fatal(err)
	}
	sA := openSession(t, b.cf, xk.IP(10, 0, 0, 2))
	sB, err := b.cf.Open(xk.NewApp("srcB", nil), xk.NewParticipants(
		xk.NewParticipant(otherProto),
		xk.NewParticipant(xk.IP(10, 0, 0, 2)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.Push(msg.New([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := sB.Push(msg.New([]byte("b"))); err != nil {
		t.Fatal(err)
	}
	if gotA != 1 || gotB != 1 {
		t.Fatalf("gotA=%d gotB=%d", gotA, gotB)
	}
}
