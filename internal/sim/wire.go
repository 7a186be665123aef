// The simulator behind the transport seam. internal/wire defines the
// contract; the Network already honors it (the seam's contract was
// written from this implementation), so the adapter below only narrows
// types: *NIC is a wire.Link as-is, and netWire maps the segment's
// counters onto the seam's.

package sim

import (
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// AsWire adapts the segment to the transport seam. The adapter is
// stateless: every call lands on the Network, and the Links it hands
// out are the Network's own *NICs, so the per-frame path gains no
// indirection. Callers that need the simulator's extra surface
// (capture, spans, the virtual clock, wire-time accounting) unwrap it
// with Unwrap.
func (n *Network) AsWire() wire.Wire { return netWire{n} }

// Factory returns a wire.Factory minting one fresh segment per call
// with this configuration — the seam-shaped spelling of New.
func Factory(cfg Config) wire.Factory {
	return func() (wire.Wire, error) {
		return New(cfg).AsWire(), nil
	}
}

// Unwrap recovers the *Network behind a seam Wire, or nil when w is a
// different backend. It looks through a wire.Injector: scripted faults
// are the injector's on every backend, so a chaos run reaches the
// simulator behind one for what only a simulator has.
func Unwrap(w wire.Wire) *Network {
	if inj, ok := w.(*wire.Injector); ok {
		w = inj.Inner()
	}
	if nw, ok := w.(netWire); ok {
		return nw.n
	}
	return nil
}

type netWire struct{ n *Network }

func (w netWire) Attach(addr xk.EthAddr) (wire.Link, error) {
	nic, err := w.n.Attach(addr)
	if err != nil {
		return nil, err
	}
	return nic, nil
}

func (w netWire) Detach(l wire.Link) {
	if nic, ok := l.(*NIC); ok {
		w.n.Detach(nic)
	}
}

// Reattach restores a detached NIC (the crash model's reboot half).
func (w netWire) Reattach(l wire.Link) error {
	nic, ok := l.(*NIC)
	if !ok {
		return wire.ErrDetached
	}
	return w.n.Reattach(nic)
}

func (w netWire) MTU() int { return w.n.MTU() }

// Close is a no-op: the segment holds no sockets or goroutines.
func (w netWire) Close() error { return nil }

// Stats narrows the segment's counters to the seam's.
func (w netWire) Stats() wire.Stats {
	s := w.n.Stats()
	return wire.Stats{
		FramesSent:      s.FramesSent,
		FramesDelivered: s.FramesDelivered,
		FramesDropped:   s.FramesDropped,
		FramesNoDest:    s.FramesNoDest,
		BytesSent:       s.BytesSent,
	}
}
