package mrpc

import (
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragmask"
)

// collector reassembles the fragments of one RPC message. Sprite treats
// the fragments of a request or reply "as parts of a single RPC" — there
// are at most 16 (16k message / 1k+ fragments), tracked in the 16-bit
// frag_mask. A channel has one message outstanding in each direction, so
// each end embeds one collector in its channel state and reuses it for
// every message; the zero value is collecting nothing.
type collector struct {
	seq      uint32
	numFrags uint16 // zero: idle
	mask     uint16
	frags    [fragmask.Max]*msg.Msg
}

// oneFragment reports whether h carries a complete message on its own:
// the first and only fragment. Such a message needs no collector — the
// collector would be started, filled and drained by this one frame.
func oneFragment(h header) bool {
	return h.numFrags <= 1 && h.fragMask == 1
}

// collecting reports whether c is part-way through message seq. A nil
// collector — a server channel that never saw a request of several
// fragments — collects nothing.
func (c *collector) collecting(seq uint32) bool {
	return c != nil && c.numFrags != 0 && c.seq == seq
}

// reset drops whatever was part-collected. Idle is the common case — a
// one-fragment message never starts the collector — and costs one load.
func (c *collector) reset() {
	if c != nil && c.numFrags != 0 {
		*c = collector{}
	}
}

// start begins collecting message seq of numFrags fragments (at most
// fragmask.Max: Demux refuses a header claiming more), dropping whatever
// was part-collected before.
func (c *collector) start(seq uint32, numFrags uint16) {
	*c = collector{seq: seq, numFrags: max(numFrags, 1)}
}

// add records fragment fragMask (a single bit) carrying m. It reports
// whether the message is now complete. Duplicate fragments are ignored.
func (c *collector) add(fragMask uint16, m *msg.Msg) bool {
	idx := fragmask.Index(fragMask)
	if idx < 0 || idx >= int(c.numFrags) || c.mask&fragMask != 0 {
		return c.complete()
	}
	c.mask |= fragMask
	c.frags[idx] = m
	return c.complete()
}

func (c *collector) complete() bool {
	return c.mask == fragmask.Full(c.numFrags)
}

// assemble returns the complete message — the first fragment with the
// others joined on in order, no payload copied — and leaves c idle.
func (c *collector) assemble() *msg.Msg {
	full := c.frags[0]
	full.JoinAll(c.frags[1:c.numFrags])
	*c = collector{}
	return full
}
