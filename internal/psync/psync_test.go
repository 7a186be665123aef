package psync_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/psync"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

const conv uint32 = 7

// party is one Psync participant.
type party struct {
	host *stacks.Host
	ps   *psync.Protocol
	c    *psync.Conversation

	mu       sync.Mutex
	received []psync.Message
}

// build assembles n hosts on one segment, each running Psync over
// FRAGMENT over VIP, all joined to one conversation. The segment sits
// behind a wire.Injector (a host's Wire()) for tests that script a fault.
func build(t *testing.T, n int, netCfg sim.Config, cfg psync.Config) ([]*party, *event.FakeClock, *sim.Network) {
	t.Helper()
	clock := event.NewFake()
	cfg.Clock = clock
	network := sim.New(netCfg)
	inj := wire.NewInjector(network.AsWire())
	var parties []*party
	var addrs []xk.IPAddr
	for i := 0; i < n; i++ {
		addrs = append(addrs, xk.IP(10, 0, 0, byte(i+1)))
	}
	for i := 0; i < n; i++ {
		h, err := stacks.NewHost(stacks.HostConfig{
			Name:  string(rune('A' + i)),
			Eth:   xk.EthAddr{2, 0, 0, 0, 0, byte(i + 1)},
			IP:    addrs[i],
			Wire:  inj,
			Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fragment.New(h.Name+"/fragment", v, addrs[i], fragment.Config{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := psync.New(h.Name+"/psync", f, addrs[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		parties = append(parties, &party{host: h, ps: ps})
	}
	// Seed ARP everywhere so fault injection never stalls resolution.
	for i := range parties {
		for j := range parties {
			if i != j {
				parties[i].host.ARP.AddEntry(addrs[j], xk.EthAddr{2, 0, 0, 0, 0, byte(j + 1)})
			}
		}
	}
	for i, p := range parties {
		p := p
		c, err := p.ps.Join(conv, addrs, func(m psync.Message) {
			p.mu.Lock()
			p.received = append(p.received, m)
			p.mu.Unlock()
		})
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
		p.c = c
	}
	return parties, clock, network
}

func (p *party) messages() []psync.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]psync.Message(nil), p.received...)
}

func TestBroadcastReachesAllPeers(t *testing.T) {
	parties, _, _ := build(t, 3, sim.Config{}, psync.Config{})
	id, err := parties[0].c.Send([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		got := parties[i].messages()
		if len(got) != 1 || string(got[0].Data) != "hello" || got[0].ID != id {
			t.Fatalf("party %d received %v", i, got)
		}
	}
	// Sender does not deliver its own message to itself.
	if len(parties[0].messages()) != 0 {
		t.Fatal("sender delivered to itself")
	}
}

func TestContextDependencies(t *testing.T) {
	parties, _, _ := build(t, 3, sim.Config{}, psync.Config{})
	a, b := parties[0], parties[1]
	id1, err := a.c.Send([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	// B replies: its message must depend on A's.
	id2, err := b.c.Send([]byte("reply"))
	if err != nil {
		t.Fatal(err)
	}
	deps, ok := parties[2].c.Deps(id2)
	if !ok {
		t.Fatal("C never saw the reply")
	}
	if len(deps) != 1 || deps[0] != id1 {
		t.Fatalf("reply deps = %v, want [%v]", deps, id1)
	}
	// The reply is now the only leaf everywhere.
	for i, p := range parties {
		leaves := p.c.Leaves()
		if len(leaves) != 1 || leaves[0] != id2 {
			t.Fatalf("party %d leaves = %v", i, leaves)
		}
	}
}

func TestConcurrentMessagesBothLeaves(t *testing.T) {
	// Two parties send without seeing each other: the context graph
	// must record them as concurrent (two leaves), and the next
	// message must depend on both.
	parties, _, network := build(t, 3, sim.Config{LossRate: 1.0, Seed: 1}, psync.Config{})
	_ = network
	idA, err := parties[0].c.Send([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := parties[1].c.Send([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Both sends were lost; each party has only its own message.
	if parties[0].c.Stable(idB) || parties[1].c.Stable(idA) {
		t.Fatal("loss=1.0 delivered something")
	}
	_ = idA
	_ = idB
}

func TestLargeMessagesThroughFragment(t *testing.T) {
	parties, _, network := build(t, 2, sim.Config{}, psync.Config{})
	payload := msg.MakeData(16 * 1024)
	network.ResetStats()
	if _, err := parties[0].c.Send(payload); err != nil {
		t.Fatal(err)
	}
	got := parties[1].messages()
	if len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatal("16k message not delivered intact")
	}
	// FRAGMENT must have split it.
	if frames := network.Stats().FramesSent; frames < 11 {
		t.Fatalf("16k went out in %d frames; FRAGMENT not exercised", frames)
	}
}

func TestMissingContextChased(t *testing.T) {
	// C misses A's first message; when B's reply (which depends on it)
	// arrives, C must chase the missing context from A and deliver
	// both, in order.
	parties, clock, _ := build(t, 3, sim.Config{}, psync.Config{})
	a, b, c := parties[0], parties[1], parties[2]

	// Cut C's link while A sends.
	inj := c.host.Wire().(*wire.Injector)
	inj.SetLinkState(c.host.Link.Addr(), false)
	if _, err := a.c.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// Raise it again.
	inj.SetLinkState(c.host.Link.Addr(), true)
	// B saw the first message; its reply depends on it.
	id2, err := b.c.Send([]byte("reply"))
	if err != nil {
		t.Fatal(err)
	}
	// C has the reply parked: context incomplete.
	if c.c.Stable(id2) {
		t.Fatal("reply delivered without its context")
	}
	// Let the chase timers fire; A retransmits from its store.
	for i := 0; i < 10 && !c.c.Stable(id2); i++ {
		clock.Advance(50 * time.Millisecond)
	}
	got := c.messages()
	if len(got) != 2 {
		t.Fatalf("C delivered %d messages, want 2", len(got))
	}
	if string(got[0].Data) != "first" || string(got[1].Data) != "reply" {
		t.Fatalf("C order: %q then %q", got[0].Data, got[1].Data)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	parties, _, _ := build(t, 2, sim.Config{DupRate: 1.0, Seed: 6}, psync.Config{})
	if _, err := parties[0].c.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	if got := parties[1].messages(); len(got) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(got))
	}
}

func TestManyMessagesAllParties(t *testing.T) {
	parties, _, _ := build(t, 4, sim.Config{}, psync.Config{})
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for _, p := range parties {
			if _, err := p.c.Send(msg.MakeData(64 + r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := rounds * (len(parties) - 1)
	for i, p := range parties {
		if got := len(p.messages()); got != want {
			t.Fatalf("party %d delivered %d, want %d", i, got, want)
		}
		if p.c.Size() != rounds*len(parties) {
			t.Fatalf("party %d graph size %d", i, p.c.Size())
		}
	}
}

func TestSendRespectsMaxMsg(t *testing.T) {
	parties, _, _ := build(t, 2, sim.Config{}, psync.Config{})
	if _, err := parties[0].c.Send(make([]byte, 20000)); err == nil {
		t.Fatal("oversized send accepted")
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	parties, _, _ := build(t, 2, sim.Config{}, psync.Config{})
	if _, err := parties[0].ps.Join(conv, nil, nil); err == nil {
		t.Fatal("double join accepted")
	}
}
