// Package chanpool is the fixed pool of lower sessions a selection layer
// lends to its calls (§3.2: SELECT "simply chooses one of the existing
// channels when an RPC is invoked; it blocks if there are none
// available"). SELECT and SUN_SELECT keep one per server.
//
// A call claims the lowest free slot with one compare-and-swap, so a lone
// caller rides the same channel every time and keeps that channel's
// state — its client slot, its server side, its held reply — warm, where
// a FIFO queue would walk it through all of them in turn. A caller parks
// only when every slot is busy; Put then hands a slot to the oldest
// parked caller, and no caller takes a slot past a parked one, so the
// pool stays as fair as a FIFO under contention.
package chanpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xkernel/internal/proto/ip"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/xk"
)

// slot is one lendable value and its busy flag. The trailing pad keeps
// any two busy flags on different cache lines: callers on different
// channels claim and release without sharing a line.
type slot[T any] struct {
	busy atomic.Bool
	v    T
	_    [64]byte
}

// Pool lends out a fixed set of values, at most one caller per value.
type Pool[T any] struct {
	slots []slot[T]

	// waiting counts callers that are parked or about to park; Take's
	// fast path and Put's wake check read it without the lock.
	waiting atomic.Int32
	mu      sync.Mutex
	parked  []chan int // oldest first; each receives the slot it is handed
}

// Open opens, on hlp's behalf, one lower session per channel through llp
// to remote — channel i as participant (proto, channel.ID(i)) — and pools
// them. A session that is not a T (one that cannot be called) fails the
// open with xk.ErrOpNotSupported.
func Open[T xk.Session](llp, hlp xk.Protocol, proto ip.ProtoNum, remote xk.IPAddr, n int) (*Pool[T], error) {
	vs := make([]T, n)
	for i := range vs {
		s, err := llp.Open(hlp, xk.NewParticipants(xk.NewParticipant(proto, channel.ID(i)), xk.NewParticipant(remote)))
		if err != nil {
			return nil, fmt.Errorf("%s: opening channel %d: %w", hlp.Name(), i, err)
		}
		var ok bool
		if vs[i], ok = s.(T); !ok {
			return nil, fmt.Errorf("%s: %s sessions cannot call: %w", hlp.Name(), llp.Name(), xk.ErrOpNotSupported)
		}
	}
	return New(vs), nil
}

// Close drains p, waiting out calls in flight, and closes every session
// in it, returning the first error.
func Close[T xk.Session](p *Pool[T]) (first error) {
	p.Drain(func(s T) {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// New returns a pool lending vs, every slot free.
func New[T any](vs []T) *Pool[T] {
	p := &Pool[T]{slots: make([]slot[T], len(vs))}
	for i, v := range vs {
		p.slots[i].v = v
	}
	return p
}

// Take claims the lowest free slot, blocking while none is free or
// another caller is parked ahead. It returns the slot's index, for Put,
// and its value.
func (p *Pool[T]) Take() (int, T) {
	if p.waiting.Load() == 0 {
		if i, ok := p.claim(); ok {
			return i, p.slots[i].v
		}
	}
	i := p.park()
	return i, p.slots[i].v
}

// claim sets the lowest clear busy flag.
func (p *Pool[T]) claim() (int, bool) {
	for i := range p.slots {
		b := &p.slots[i].busy
		if !b.Load() && b.CompareAndSwap(false, true) {
			return i, true
		}
	}
	return 0, false
}

// park queues the caller and waits for a slot. It announces itself in
// waiting before its last look at the flags, and Put clears a flag
// before it reads waiting, so either that look finds the slot Put
// freed or Put sees the caller and wakes it: no wakeup is lost.
func (p *Pool[T]) park() int {
	p.mu.Lock()
	p.waiting.Add(1)
	if len(p.parked) == 0 {
		if i, ok := p.claim(); ok {
			p.waiting.Add(-1)
			p.mu.Unlock()
			return i
		}
	}
	w := make(chan int, 1)
	p.parked = append(p.parked, w)
	p.mu.Unlock()
	return <-w
}

// Put returns slot i, taken by Take. If a caller is parked, the oldest
// one gets a slot before Put returns.
func (p *Pool[T]) Put(i int) {
	p.slots[i].busy.Store(false)
	if p.waiting.Load() != 0 {
		p.wake()
	}
}

// wake claims a free slot for the oldest parked caller. It finds none
// free only when another caller claimed it first, and that caller's Put
// wakes the next one.
func (p *Pool[T]) wake() {
	p.mu.Lock()
	if len(p.parked) == 0 {
		p.mu.Unlock()
		return
	}
	i, ok := p.claim()
	if !ok {
		p.mu.Unlock()
		return
	}
	w := p.parked[0]
	p.parked[0] = nil
	p.parked = p.parked[1:]
	p.waiting.Add(-1)
	p.mu.Unlock()
	w <- i
}

// Waiting reports how many callers are parked, or about to park, for a
// slot.
func (p *Pool[T]) Waiting() int { return int(p.waiting.Load()) }

// Busy reports how many slots are lent out, including those handed to
// a parked caller that has not yet woken.
func (p *Pool[T]) Busy() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].busy.Load() {
			n++
		}
	}
	return n
}

// Free reports how many slots are idle, from the same flags as Busy.
func (p *Pool[T]) Free() int { return len(p.slots) - p.Busy() }

// Drain takes every slot, waiting for those lent out to come back, and
// calls f once on each value in slot order. The pool lends nothing
// afterwards.
func (p *Pool[T]) Drain(f func(T)) {
	for range p.slots {
		p.Take()
	}
	for i := range p.slots {
		f(p.slots[i].v)
	}
}
