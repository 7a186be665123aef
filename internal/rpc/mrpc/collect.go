package mrpc

import "xkernel/internal/msg"

// collector reassembles the fragments of one RPC message. Sprite treats
// the fragments of a request or reply "as parts of a single RPC" — there
// are at most 16 (16k message / 1k+ fragments), tracked in the 16-bit
// frag_mask.
type collector struct {
	seq      uint32
	numFrags uint16
	mask     uint16
	frags    []*msg.Msg
}

// oneFragment reports whether h carries a complete message on its own:
// the first and only fragment. Such a message needs no collector — the
// collector would be created, filled and drained by this one frame.
func oneFragment(h header) bool {
	return h.numFrags <= 1 && h.fragMask == 1
}

// collecting reports whether c is part-way through message seq. A nil
// collector is collecting nothing.
func (c *collector) collecting(seq uint32) bool {
	return c != nil && c.seq == seq
}

// newCollector starts collecting a message of numFrags fragments.
func newCollector(seq uint32, numFrags uint16) *collector {
	if numFrags == 0 {
		numFrags = 1
	}
	return &collector{seq: seq, numFrags: numFrags, frags: make([]*msg.Msg, numFrags)}
}

// add records fragment fragMask (a single bit) carrying m. It reports
// whether the message is now complete. Duplicate fragments are ignored.
func (c *collector) add(fragMask uint16, m *msg.Msg) bool {
	idx := bitIndex(fragMask)
	if idx < 0 || idx >= int(c.numFrags) || c.mask&fragMask != 0 {
		return c.complete()
	}
	c.mask |= fragMask
	c.frags[idx] = m
	return c.complete()
}

func (c *collector) complete() bool {
	return c.mask == fullMask(c.numFrags)
}

// assemble concatenates the fragments in order (no payload copying).
func (c *collector) assemble() *msg.Msg {
	out := msg.Empty()
	for _, f := range c.frags {
		if f != nil {
			out.Join(f)
		}
	}
	return out
}

// fullMask returns the mask with the low n bits set.
func fullMask(n uint16) uint16 {
	if n >= 16 {
		return 0xffff
	}
	return uint16(1)<<n - 1
}

// bitIndex returns the index of the single set bit in mask, or -1.
func bitIndex(mask uint16) int {
	if mask == 0 || mask&(mask-1) != 0 {
		return -1
	}
	for i := 0; i < 16; i++ {
		if mask&(1<<i) != 0 {
			return i
		}
	}
	return -1
}
