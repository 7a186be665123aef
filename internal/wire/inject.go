// Fault injection at the seam. The simulator carries its own scenario
// fault machinery (sim/faults.go) because it IS the wire there; a real
// backend like wire/udp carries none — the OS delivers what it
// delivers. The Injector restores the scripted-adversity half of the
// chaos contract for such backends: a wrapper Wire that vetoes frames
// between the driver and the inner backend, deterministically, with
// every veto visible through a hook.
//
// Only the deterministic scenario faults are reproduced (count-based
// drops, predicate drops, link state). The probabilistic knobs and the
// reorder hold stay simulator-only: they need a seeded RNG and a
// virtual clock to mean anything reproducible.

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
	// points it at the flight recorder). It runs on the sender's
	// goroutine; index is the 1-based ordinal of the frame among all
	// frames offered to this injector. Set it before traffic flows.
	OnDrop func(disposition string, src, dst xk.EthAddr, index int64, size int)

	mu       sync.Mutex
	links    map[Link]*injLink
	down     map[xk.EthAddr]bool
	dropNext int
	rules    []*injRule
	ruleSeq  int
	seq      int64
	dropped  int64
}

// injRule mirrors the simulator's Rule in its deterministic subset.
type injRule struct {
	id    int
	match func(src, dst xk.EthAddr) bool
	count int // 0 = unlimited
	hits  int
}

// Injector dispositions, matching the simulator's capture vocabulary so
// flight dumps read the same off-simulator.
const (
	DropRuled    = "ruledrop"
	DropNexted   = "drop"
	DropLinkDown = "linkdown"
)

// NewInjector wraps inner. The zero state injects nothing: every frame
// passes through untouched.
func NewInjector(inner Wire) *Injector {
	return &Injector{inner: inner, links: make(map[Link]*injLink)}
}

// Attach binds a link on the inner wire and interposes on it.
func (i *Injector) Attach(addr xk.EthAddr) (Link, error) {
	inner, err := i.inner.Attach(addr)
	if err != nil {
		return nil, err
	}
	l := &injLink{inj: i, inner: inner}
	i.mu.Lock()
	i.links[inner] = l
	i.mu.Unlock()
	return l, nil
}

// Detach removes the wrapped link from the inner wire.
func (i *Injector) Detach(l Link) {
	il, ok := l.(*injLink)
	if !ok {
		i.inner.Detach(l)
		return
	}
	i.mu.Lock()
	delete(i.links, il.inner)
	i.mu.Unlock()
	i.inner.Detach(il.inner)
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
	if err := r.Reattach(il.inner); err != nil {
		return err
	}
	i.mu.Lock()
	i.links[il.inner] = il
	i.mu.Unlock()
	return nil
}

// MTU reports the inner wire's MTU.
func (i *Injector) MTU() int { return i.inner.MTU() }

// Close closes the inner wire.
func (i *Injector) Close() error { return i.inner.Close() }

// Stats folds the injector's vetoes into the inner counters: a vetoed
// frame counts as sent and dropped, matching the simulator's accounting
// for frames its own injector ate.
func (i *Injector) Stats() Stats {
	s := i.inner.Stats()
	i.mu.Lock()
	d := i.dropped
	i.mu.Unlock()
	s.FramesSent += d
	s.FramesDropped += d
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
// for RemoveRule.
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
// eaten while it is down. The link stays attached, as in the simulator.
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

// veto decides one offered frame; it returns the disposition of a
// dropped frame ("" = pass) and the frame's ordinal.
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
		i.dropped++
	}
	return disp, index
}

// vetoRecv decides a frame at delivery time (receiver link down).
func (i *Injector) vetoRecv(dst xk.EthAddr) (bool, int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.down[dst] {
		i.seq++
		i.dropped++
		return true, i.seq
	}
	return false, 0
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

// recvVetoed decides a frame of size bytes at delivery time: a down link
// also stops hearing.
func (l *injLink) recvVetoed(size int) bool {
	self := l.inner.Addr()
	eaten, index := l.inj.vetoRecv(self)
	if eaten {
		if h := l.inj.OnDrop; h != nil {
			h(DropLinkDown, self, self, index, size)
		}
	}
	return eaten
}

// SetReceiver interposes on delivery.
func (l *injLink) SetReceiver(f func(frame []byte)) {
	if f == nil {
		l.inner.SetReceiver(nil)
		return
	}
	l.inner.SetReceiver(func(frame []byte) {
		if !l.recvVetoed(len(frame)) {
			f(frame)
		}
	})
}

// SetMsgReceiver interposes on delivery.
func (l *injLink) SetMsgReceiver(f func(m *msg.Msg)) {
	if f == nil {
		l.inner.SetMsgReceiver(nil)
		return
	}
	l.inner.SetMsgReceiver(func(m *msg.Msg) {
		if !l.recvVetoed(m.Len()) {
			f(m)
		}
	})
}
