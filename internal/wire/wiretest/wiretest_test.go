// The contract run over every in-tree backend: the simulator (the
// contract's source of truth), the UDP socket backend (lossy, real
// goroutines), and the fault injector wrapping each (a transparent
// Wire while no faults are armed).
package wiretest_test

import (
	"reflect"
	"testing"
	"time"

	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/wire/udp"
	"xkernel/internal/wire/wiretest"
	"xkernel/internal/xk"
)

func mkSim(t *testing.T) wire.Wire {
	return sim.New(sim.Config{}).AsWire()
}

func mkUDP(t *testing.T) wire.Wire {
	w, err := udp.New(udp.Config{})
	if err != nil {
		t.Fatalf("udp.New: %v", err)
	}
	return w
}

func TestContractSim(t *testing.T) {
	wiretest.Run(t, mkSim, wiretest.Options{})
}

func TestContractUDP(t *testing.T) {
	wiretest.Run(t, mkUDP, wiretest.Options{Lossy: true, Patience: 5 * time.Second})
}

func TestContractInjectorOverSim(t *testing.T) {
	wiretest.Run(t, func(t *testing.T) wire.Wire {
		return wire.NewInjector(mkSim(t))
	}, wiretest.Options{})
}

func TestContractInjectorOverUDP(t *testing.T) {
	wiretest.Run(t, func(t *testing.T) wire.Wire {
		return wire.NewInjector(mkUDP(t))
	}, wiretest.Options{Lossy: true, Patience: 5 * time.Second})
}

// drop is one veto as OnDrop reported it.
type drop struct {
	disp     string
	src, dst xk.EthAddr
	index    int64
}

// faultBed is three links (0, 1, 2 — "A", "B", "C") behind one injector.
// Every frame is an ethernet header plus a one-byte tag, so a script can
// name the frames it expects. Nothing here reads a clock: an expected
// frame or veto is waited for by a blocking receive, and fence proves an
// unexpected one is not still on its way.
type faultBed struct {
	t     *testing.T
	mk    func(*testing.T) wire.Wire
	inj   *wire.Injector
	addr  [3]xk.EthAddr
	link  [3]wire.Link
	got   [3]chan byte
	drops chan drop
}

const fenceTag = 0xFF

func newFaultBed(t *testing.T, mk func(*testing.T) wire.Wire) *faultBed {
	t.Helper()
	b := &faultBed{t: t, mk: mk, inj: wire.NewInjector(mk(t)), drops: make(chan drop, 64)}
	t.Cleanup(func() { b.inj.Close() })
	b.inj.OnDrop = func(disp string, src, dst xk.EthAddr, index int64, _ int) {
		b.drops <- drop{disp, src, dst, index}
	}
	for i := range b.link {
		b.addr[i] = xk.EthAddr{0x02, 0, 0, 0, 0, byte(i + 1)}
		l, err := b.inj.Attach(b.addr[i])
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		got := make(chan byte, 64)
		l.SetReceiver(func(f []byte) { got <- f[14] })
		b.link[i], b.got[i] = l, got
	}
	return b
}

// sendTo offers one tagged frame from link `from` to dst.
func (b *faultBed) sendTo(from int, dst xk.EthAddr, tag byte) {
	b.t.Helper()
	f := make([]byte, 15)
	copy(f[0:6], dst[:])
	copy(f[6:12], b.addr[from][:])
	f[14] = tag
	if err := b.link[from].Send(dst, f); err != nil {
		b.t.Fatalf("send %d: %v", tag, err)
	}
}

func (b *faultBed) send(from, to int, tag byte) { b.t.Helper(); b.sendTo(from, b.addr[to], tag) }

// want waits for the next frames at link `at` and holds them to tags.
func (b *faultBed) want(at int, tags ...byte) {
	b.t.Helper()
	for _, tag := range tags {
		if got := <-b.got[at]; got != tag {
			b.t.Fatalf("link %d heard frame %d, want %d", at, got, tag)
		}
	}
}

// wantDrop waits for the next veto and holds it to d.
func (b *faultBed) wantDrop(d drop) {
	b.t.Helper()
	if got := <-b.drops; got != d {
		b.t.Fatalf("veto %+v, want %+v", got, d)
	}
}

// wantStats holds the injector's counters to the traffic so far; call it
// once every frame sent has been waited for as heard or vetoed.
func (b *faultBed) wantStats(sent, delivered, dropped int64) {
	b.t.Helper()
	s := b.inj.Stats()
	if s.FramesSent != sent || s.FramesDelivered != delivered || s.FramesDropped != dropped {
		b.t.Fatalf("stats %+v, want sent=%d delivered=%d dropped=%d", s, sent, delivered, dropped)
	}
}

// fence proves nothing a script did not wait for was heard or vetoed. It
// needs the board clear (rules spent or removed, links up). A fence frame
// crosses every ordered pair of links; a backend keeps one sender's
// frames to one receiver in order, so a stray frame would be heard
// before the fence behind it.
func (b *faultBed) fence() {
	b.t.Helper()
	for from := range b.link {
		for to := range b.link {
			if from != to {
				b.send(from, to, fenceTag)
			}
		}
	}
	for at := range b.link {
		b.want(at, fenceTag, fenceTag)
	}
	select {
	case d := <-b.drops:
		b.t.Fatalf("unexpected veto %+v", d)
	default:
	}
}

const (
	lA = iota
	lB
	lC
)

// between matches what chaos's partition matches: every frame from one
// of the two addresses to the other, broadcast included.
func between(x, y xk.EthAddr) func(src, dst xk.EthAddr) bool {
	return func(src, dst xk.EthAddr) bool {
		return (src == x && (dst == y || dst.IsBroadcast())) ||
			(src == y && (dst == x || dst.IsBroadcast()))
	}
}

// mixedScenario drives a late-armed rule, a partition that starts and
// heals mid-traffic and a burst, and returns every veto it caused.
func mixedScenario(b *faultBed) []drop {
	A, B := b.addr[lA], b.addr[lB]
	offered := 0
	b.inj.DropWhere(func(_, _ xk.EthAddr) bool { offered++; return offered > 10 }, 3)
	var part int
	for i := 0; i < 20; i++ {
		switch i {
		case 8:
			part = b.inj.DropWhere(between(A, B), 0)
		case 12:
			b.inj.RemoveRule(part)
		case 15:
			b.inj.DropNext(2)
		}
		b.send(lA, lB, byte(i))
		b.send(lB, lA, byte(i))
	}
	var log []drop
	for len(b.drops) > 0 { // complete: a send-time veto is reported before Send returns
		log = append(log, <-b.drops)
	}
	for _, at := range []int{lA, lB} {
		heard := 20
		for _, d := range log {
			if d.dst == b.addr[at] {
				heard--
			}
		}
		for ; heard > 0; heard-- {
			<-b.got[at]
		}
	}
	b.fence()
	return log
}

// injectorFaults are the scripted-adversity cases: the part of the
// contract the plain harness leaves unarmed. Each script leaves the board
// clear and is followed by a fence.
var injectorFaults = []struct {
	name string
	run  func(b *faultBed)
}{
	// DropNext eats exactly n frames, whoever sends them, then passes
	// traffic again.
	{"BurstLoss", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		b.send(lA, lB, 1)
		b.inj.DropNext(2)
		b.send(lA, lB, 2)
		b.send(lB, lA, 3)
		b.send(lA, lB, 4)
		b.want(lB, 1, 4)
		b.wantDrop(drop{wire.DropNexted, A, B, 2})
		b.wantDrop(drop{wire.DropNexted, B, A, 3})
		b.wantStats(4, 2, 2)
	}},
	// A predicate rule eats matching frames up to its count and nothing
	// else: the budget is one, the other direction never matched.
	{"RuleDropsMatchingFrames", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		b.inj.DropWhere(func(src, _ xk.EthAddr) bool { return src == B }, 1)
		b.send(lA, lB, 1)
		b.send(lB, lA, 2)
		b.send(lB, lA, 3)
		b.want(lB, 1)
		b.want(lA, 3)
		b.wantDrop(drop{wire.DropRuled, B, A, 2})
		b.wantStats(3, 2, 1)
	}},
	// Late arming is a closure counting its calls: match runs once per
	// offered frame, in offer order.
	{"RuleAfterArmsLate", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		offered := 0
		id := b.inj.DropWhere(func(_, _ xk.EthAddr) bool { offered++; return offered > 2 }, 0)
		for tag := byte(1); tag <= 4; tag++ {
			b.send(lA, lB, tag)
		}
		b.want(lB, 1, 2)
		b.wantDrop(drop{wire.DropRuled, A, B, 3})
		b.wantDrop(drop{wire.DropRuled, A, B, 4})
		b.inj.RemoveRule(id)
	}},
	{"RemoveRuleRestoresDelivery", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		id := b.inj.DropWhere(nil, 0) // nil matches every frame
		b.send(lA, lB, 1)
		b.inj.RemoveRule(id)
		b.inj.RemoveRule(id) // unknown by now: a no-op
		b.send(lA, lB, 2)
		b.want(lB, 2)
		b.wantDrop(drop{wire.DropRuled, A, B, 1})
	}},
	// A down link neither sends nor is sent to; raising it heals. Link
	// state outranks the burst budget: a frame a down link ate spends
	// none of it.
	{"LinkDownCutsBothDirections", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		b.inj.SetLinkState(B, false)
		b.inj.DropNext(1)
		b.send(lA, lB, 1)
		b.send(lB, lA, 2)
		b.wantDrop(drop{wire.DropLinkDown, A, B, 1})
		b.wantDrop(drop{wire.DropLinkDown, B, A, 2})
		b.inj.SetLinkState(B, true)
		b.send(lA, lB, 3)
		b.send(lA, lB, 4)
		b.want(lB, 4)
		b.wantDrop(drop{wire.DropNexted, A, B, 3})
		b.wantStats(4, 1, 3)
	}},
	// A broadcast passes the send-time check and is eaten where it would
	// be heard: the copy for the down link is a drop of that one frame —
	// not a second send, not a delivery, no ordinal of its own — reported
	// with the sender the header names.
	{"LinkDownSkipsBroadcastReceiver", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		b.inj.SetLinkState(B, false)
		b.sendTo(lA, xk.BroadcastEth, 1)
		b.want(lC, 1)
		b.wantDrop(drop{wire.DropLinkDown, A, B, 0})
		b.wantStats(1, 1, 1)
		b.inj.SetLinkState(B, true)
		b.inj.DropNext(1)
		b.send(lA, lB, 2)
		b.wantDrop(drop{wire.DropNexted, A, B, 2})
	}},
	// A partition is one unlimited bidirectional rule, healed by removing
	// it. A link on neither side talks to both.
	{"PartitionAndHeal", func(b *faultBed) {
		A, B := b.addr[lA], b.addr[lB]
		id := b.inj.DropWhere(between(A, B), 0)
		b.send(lA, lB, 1)
		b.send(lB, lA, 2)
		b.send(lA, lC, 3)
		b.send(lC, lB, 4)
		b.want(lC, 3)
		b.want(lB, 4)
		b.wantDrop(drop{wire.DropRuled, A, B, 1})
		b.wantDrop(drop{wire.DropRuled, B, A, 2})
		b.inj.RemoveRule(id)
		b.send(lA, lB, 5)
		b.want(lB, 5)
	}},
	// The board consults no RNG and no clock: the same script over a
	// fresh wire vetoes the same frames with the same ordinals.
	{"ScenarioFaultsAreDeterministic", func(b *faultBed) {
		first, second := mixedScenario(b), mixedScenario(newFaultBed(b.t, b.mk))
		if len(first) != 3+8+2 {
			b.t.Fatalf("mixed scenario vetoed %d frames, want 13: %+v", len(first), first)
		}
		if !reflect.DeepEqual(first, second) {
			b.t.Fatalf("same script diverged:\n%+v\nvs\n%+v", first, second)
		}
	}},
}

// TestInjectorFaults runs every case over the injector on the simulator
// and on real UDP sockets: one board, the same behaviour on both.
func TestInjectorFaults(t *testing.T) {
	for _, backend := range []struct {
		name string
		mk   func(*testing.T) wire.Wire
	}{{"sim", mkSim}, {"udp", mkUDP}} {
		for _, tc := range injectorFaults {
			t.Run(backend.name+"/"+tc.name, func(t *testing.T) {
				b := newFaultBed(t, backend.mk)
				tc.run(b)
				b.fence()
			})
		}
	}
}
