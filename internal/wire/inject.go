// Fault injection at the seam: the one place a scripted fault is
// decided. A backend is a physical model — the simulator's segment, the
// OS's sockets — and carries no scenario machinery of its own. The
// Injector is the object interposed on the uniform interface: a wrapper
// Wire that vetoes frames between the driver and the inner backend,
// deterministically, with every veto visible through a hook. Chaos
// scenarios, and any test that wants "the third reply vanishes", script
// it here, over whichever backend carries the frames.
//
// The board is deterministic by construction: a rule either matches a
// frame or it does not, a link is either down or it is not, and nothing
// consults an RNG. What needs a seeded RNG and a virtual clock to mean
// anything reproducible — the probabilistic loss/dup/corrupt knobs and
// the reorder hold — stays in the simulator.

package wire

import (
	"sync"

	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

// Injector wraps a Wire with deterministic scripted faults.
type Injector struct {
	inner Wire

	// OnDrop, when set, observes every vetoed frame (the chaos engine
	// points it at the wire log and the flight recorder). A frame vetoed
	// when offered is reported on the sender's goroutine with its 1-based
	// ordinal among all frames offered to this injector. A copy eaten at
	// delivery (the receiving link is down) is reported on the delivering
	// goroutine with dst the link that ate it, src the sender named in
	// the frame's ethernet header (zero when the frame is too short to
	// carry one) and index 0: the frame was numbered when it was offered,
	// and the ordinal does not cross the inner wire with it. Set OnDrop
	// before traffic flows.
	OnDrop func(disposition string, src, dst xk.EthAddr, index int64, size int)

	mu        sync.Mutex
	down      map[xk.EthAddr]bool
	dropNext  int
	rules     []*injRule
	ruleSeq   int
	seq       int64 // frames offered so far
	sendDrops int64 // vetoed when offered: the inner wire never saw them
	recvDrops int64 // eaten at delivery: the inner wire counted them delivered
}

// injRule is one installed predicate drop plus its accounting.
type injRule struct {
	id    int
	match func(src, dst xk.EthAddr) bool
	count int // 0 = unlimited
	hits  int
}

// Injector dispositions: the whole vocabulary of a scripted veto, on
// every backend. "drop" is also what the simulator calls a frame its
// seeded loss rate ate, so a burst reads the same in a wire log whichever
// of the two caused it.
const (
	DropRuled    = "ruledrop" // matched a DropWhere rule (a partition is one)
	DropNexted   = "drop"     // consumed DropNext budget
	DropLinkDown = "linkdown" // sent from, to, or delivered to a down link
)

// NewInjector wraps inner. The zero state injects nothing: every frame
// passes through untouched.
func NewInjector(inner Wire) *Injector {
	return &Injector{inner: inner}
}

// Injected returns a factory minting f's wires each behind an Injector
// of its own; the Wire it returns is the *Injector.
func Injected(f Factory) Factory {
	return func() (Wire, error) {
		inner, err := f()
		if err != nil {
			return nil, err
		}
		return NewInjector(inner), nil
	}
}

// Inner returns the wire the injector wraps, for callers that need the
// backend's own surface (sim.Unwrap finds the simulator through it).
func (i *Injector) Inner() Wire { return i.inner }

// Attach binds a link on the inner wire and interposes on it.
func (i *Injector) Attach(addr xk.EthAddr) (Link, error) {
	inner, err := i.inner.Attach(addr)
	if err != nil {
		return nil, err
	}
	return &injLink{inj: i, inner: inner}, nil
}

// Detach removes the wrapped link from the inner wire.
func (i *Injector) Detach(l Link) {
	if il, ok := l.(*injLink); ok {
		l = il.inner
	}
	i.inner.Detach(l)
}

// Reattach restores a previously detached wrapped link, provided the
// inner backend supports the crash model.
func (i *Injector) Reattach(l Link) error {
	il, ok := l.(*injLink)
	if !ok {
		return ErrDetached
	}
	r, ok := i.inner.(Reattacher)
	if !ok {
		return ErrDetached
	}
	return r.Reattach(il.inner)
}

// MTU reports the inner wire's MTU.
func (i *Injector) MTU() int { return i.inner.MTU() }

// Close closes the inner wire.
func (i *Injector) Close() error { return i.inner.Close() }

// Stats folds the injector's vetoes into the inner counters, so that
// FramesDropped is everything deliberately eaten, whoever ate it. A
// frame vetoed when offered never reached the inner wire: it is sent
// and dropped here. A copy eaten at delivery was sent once and counted
// delivered by the inner wire: it moves from delivered to dropped and is
// not another send.
func (i *Injector) Stats() Stats {
	s := i.inner.Stats()
	i.mu.Lock()
	sent, recv := i.sendDrops, i.recvDrops
	i.mu.Unlock()
	s.FramesSent += sent
	s.FramesDelivered -= recv
	s.FramesDropped += sent + recv
	return s
}

// DropNext arms the injector to eat the next n frames, whoever sends
// them — the loss-burst scenario.
func (i *Injector) DropNext(n int) {
	i.mu.Lock()
	i.dropNext += n
	i.mu.Unlock()
}

// DropWhere installs a predicate drop rule eating up to count frames
// (0 = unlimited) for which match(src, dst) is true. It returns an id
// for RemoveRule. Rules are tried in installation order and the first
// match wins. match runs with the injector's lock held, once per offered
// frame in offer order until the rule's budget is spent — so a closure
// that counts its calls arms a rule late, deterministically — and must
// not call back into the injector.
func (i *Injector) DropWhere(match func(src, dst xk.EthAddr) bool, count int) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ruleSeq++
	i.rules = append(i.rules, &injRule{id: i.ruleSeq, match: match, count: count})
	return i.ruleSeq
}

// RemoveRule uninstalls a rule; unknown ids are a no-op.
func (i *Injector) RemoveRule(id int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for k, r := range i.rules {
		if r.id == id {
			i.rules = append(i.rules[:k], i.rules[k+1:]...)
			return
		}
	}
}

// SetLinkState raises (up=true) or cuts (up=false) the link bound to
// addr: frames sent from it, unicast to it, or delivered to it are
// eaten while it is down. The link stays attached — a down link models a
// cable pull or a powered-off interface, while Detach models the
// interface itself going away.
func (i *Injector) SetLinkState(addr xk.EthAddr, up bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if up {
		delete(i.down, addr)
		return
	}
	if i.down == nil {
		i.down = make(map[xk.EthAddr]bool)
	}
	i.down[addr] = true
}

// veto decides one offered frame, in precedence order: link state, the
// DropNext budget, then the rules. It returns the disposition of a
// dropped frame ("" = pass) and the frame's ordinal — the only place an
// ordinal is handed out.
func (i *Injector) veto(src, dst xk.EthAddr) (string, int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.seq++
	index := i.seq
	disp := ""
	switch {
	case i.down[src] || (!dst.IsBroadcast() && i.down[dst]):
		disp = DropLinkDown
	case i.dropNext > 0:
		i.dropNext--
		disp = DropNexted
	default:
		for _, r := range i.rules {
			if r.count != 0 && r.hits >= r.count {
				continue
			}
			if r.match != nil && !r.match(src, dst) {
				continue
			}
			r.hits++
			disp = DropRuled
			break
		}
	}
	if disp != "" {
		i.sendDrops++
	}
	return disp, index
}

// vetoRecv decides a frame at delivery time: a down link also stops
// hearing. Send-time vetoes cover unicast; this covers broadcast fan-out
// and a frame that was in flight when the link went down.
func (i *Injector) vetoRecv(dst xk.EthAddr) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.down[dst] {
		i.recvDrops++
		return true
	}
	return false
}

// injLink interposes on one attachment.
type injLink struct {
	inj   *Injector
	inner Link
}

func (l *injLink) Addr() xk.EthAddr { return l.inner.Addr() }
func (l *injLink) MTU() int         { return l.inner.MTU() }

// vetoed decides a frame of size bytes offered for dst, reporting the
// drop to OnDrop. An oversize frame is passed, so that it is the inner
// backend's send error, not an injected drop, on every backend.
func (l *injLink) vetoed(dst xk.EthAddr, size int) bool {
	if size > MaxFrame(l.inner.MTU()) {
		return false
	}
	src := l.inner.Addr()
	disp, index := l.inj.veto(src, dst)
	if disp == "" {
		return false
	}
	if f := l.inj.OnDrop; f != nil {
		f(disp, src, dst, index, size)
	}
	return true
}

func (l *injLink) Send(dst xk.EthAddr, frame []byte) error {
	if l.vetoed(dst, len(frame)) {
		return nil
	}
	return l.inner.Send(dst, frame)
}

// SendMsg vetoes on (src, dst, length) alone and passes the message
// through as it is.
func (l *injLink) SendMsg(dst xk.EthAddr, m *msg.Msg) error {
	if l.vetoed(dst, m.Len()) {
		return nil
	}
	return l.inner.SendMsg(dst, m)
}

// dropAtDelivery reports a copy of size bytes eaten at this link; hdr is
// the frame's leading bytes, from which the sender is read.
func (l *injLink) dropAtDelivery(hdr []byte, size int) {
	if f := l.inj.OnDrop; f != nil {
		var src xk.EthAddr
		if len(hdr) >= 12 {
			copy(src[:], hdr[6:12]) // ethernet header: dst(6) src(6) type(2)
		}
		f(DropLinkDown, src, l.inner.Addr(), 0, size)
	}
}

// SetReceiver interposes on delivery.
func (l *injLink) SetReceiver(f func(frame []byte)) {
	if f == nil {
		l.inner.SetReceiver(nil)
		return
	}
	l.inner.SetReceiver(func(frame []byte) {
		if l.inj.vetoRecv(l.inner.Addr()) {
			l.dropAtDelivery(frame, len(frame))
			return
		}
		f(frame)
	})
}

// SetMsgReceiver interposes on delivery.
func (l *injLink) SetMsgReceiver(f func(m *msg.Msg)) {
	if f == nil {
		l.inner.SetMsgReceiver(nil)
		return
	}
	l.inner.SetMsgReceiver(func(m *msg.Msg) {
		if l.inj.vetoRecv(l.inner.Addr()) {
			hdr, err := m.Peek(12)
			if err != nil {
				hdr = nil // too short to name a sender
			}
			l.dropAtDelivery(hdr, m.Len())
			return
		}
		f(m)
	})
}
