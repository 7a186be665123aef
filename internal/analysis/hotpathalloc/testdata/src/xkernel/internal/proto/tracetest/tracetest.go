// Replicates the shape that kept hotpathalloc green while eth.Demux,
// eth.(*session).Push and fragment.(*session).Push allocated on every
// message: a packet-level trace.Printf handed live values. Printf checks
// its level first thing, but by then the caller has boxed every
// non-constant argument into the variadic slice.
package tracetest

import (
	"fmt"
	"log"

	"xkernel/internal/msg"
	"xkernel/internal/obs/flight"
	"xkernel/internal/trace"
)

const HeaderLen = 14

type addr [6]byte

type session struct {
	name   string
	remote addr
	seq    uint32
	fl     *flight.Recorder
	boxed  []any // arguments boxed once, at open
}

// Demux is eth.Demux as it stood: three boxed arguments per frame with
// tracing off.
func (s *session) Demux(m *msg.Msg) error {
	hdr, err := m.Pop(HeaderLen)
	if err != nil {
		// A reject path builds the error it returns; that is not a
		// trace call.
		return fmt.Errorf("%s: short frame of %d bytes from %x: %w", s.name, m.Len(), s.remote, err)
	}
	var src addr
	copy(src[:], hdr[6:12])
	trace.Printf(trace.Packets, s.name, "demux src=%x len=%d", src, m.Len()) // want "trace call in hot path Demux boxes its arguments"
	return nil
}

// Push is the blessed shape: the same line behind the level check costs
// one atomic load with tracing off.
func (s *session) Push(m *msg.Msg) error {
	if trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, s.name, "push seq=%d len=%d to %x", s.seq, m.Len(), s.remote)
	}
	if s.fl.Enabled() && m.Len() > 0 {
		log.Printf("frame of %d bytes", m.Len()) // any Enabled guard, any ...any logger
	}
	// Constants are boxed at compile time, interfaces and pointers are
	// not boxed at all, and a ready-made slice is passed through.
	trace.Printf(trace.Packets, s.name, "push type=%#04x frags=%d", 0x3001, 1)
	trace.Printf(trace.Events, s.name, "state: %v %v", error(nil), s)
	trace.Printf(trace.Events, s.name, "%s seq=%d", s.boxed...)
	return nil
}

// Pop shows the guards that do not count: the wrong branch, the else
// arm, and an unrelated condition.
func (s *session) Pop(m *msg.Msg) error {
	if !trace.Enabled(trace.Packets) {
		trace.Printf(trace.Packets, s.name, "pop len=%d", m.Len()) // want "trace call in hot path Pop boxes its arguments"
	}
	if trace.Enabled(trace.Events) {
		return nil
	} else {
		trace.Printf(trace.Events, s.name, "pop seq=%d", s.seq) // want "trace call in hot path Pop boxes its arguments"
	}
	if m.Len() > HeaderLen {
		log.Printf("%s: long frame from %x", s.name, s.remote) // want "trace call in hot path Pop boxes its arguments"
	}
	retry := func() {
		trace.Printf(trace.Events, s.name, "retry seq=%d", s.seq) // timer callbacks are not the per-message path
	}
	_ = retry
	return nil
}

// Open is not a hot method: setup traces freely.
func (s *session) Open() error {
	trace.Printf(trace.Events, s.name, "open remote=%x seq=%d", s.remote, s.seq)
	return nil
}
