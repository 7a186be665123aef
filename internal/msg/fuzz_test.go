package msg

import (
	"bytes"
	"testing"
)

// FuzzPushPopFragmentJoin drives a Msg through a random op sequence and
// checks it against the naive model — a flat []byte — after every step.
// The directed tests pin down each operation's contract; the fuzzer
// hunts for interactions between them (a Truncate that re-slices the
// leader followed by a Push, a Pop straddling the header/payload
// boundary after a Join, ...). Once the sequence has cloned the message,
// bit 3 of each op byte picks which of the two — original or clone — the
// op mutates, and both are checked after every step: the leader, blocks
// and attributes live inside the Msg, so an op on one must never show
// through the other. Every fragment Fragment cuts is cut through a Cutter
// as well, and the two must match in bytes, Len and Headroom. After every
// step the message just changed is held (HoldInto) into one Msg reused
// for the whole sequence, as a ledger holds reply after reply: the held
// copy must read as the message did, carry no attributes, and not change
// with whatever the next step does to the message.
func FuzzPushPopFragmentJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 1, 2, 5, 6, 0, 7})
	f.Add([]byte{3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 4, 2, 1, 4, 3})
	f.Add(bytes.Repeat([]byte{0, 8, 1, 1, 2, 4, 5, 7}, 16))
	// Clone, then alternate Push/Pop/Append/Truncate between the two.
	f.Add([]byte{3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 1, 2, 3, 4, 7, 5, 8, 3, 9, 9, 9, 1, 6, 11, 4, 10, 2, 8 | 1, 3, 4, 5, 12, 2, 7, 6})
	// A default-leader cut over header bytes: 10 of 18 go into the
	// fragment's leader; 130 of 138 do not fit beside lowerHeadroom and
	// are copied into a block.
	f.Add(append(append([]byte{0, 18}, bytes.Repeat([]byte{7}, 18)...), 5|16, 2, 10))
	f.Add(append(bytes.Repeat(append([]byte{0, 23}, bytes.Repeat([]byte{9}, 23)...), 6), 5|16, 0, 130))

	f.Fuzz(func(t *testing.T, data []byte) {
		cursor := 0
		next := func() byte {
			if cursor >= len(data) {
				return 0
			}
			b := data[cursor]
			cursor++
			return b
		}
		// chunk returns up to n bytes of fuzz input to use as content.
		chunk := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = next()
			}
			return out
		}

		// pair is a message and its naive model; attrs models SetAttr.
		type pair struct {
			m     *Msg
			model []byte
			attrs map[AttrKey]byte
		}
		orig := &pair{m: Empty(), attrs: map[AttrKey]byte{}}
		var clone *pair // nil until the sequence clones
		// cut cuts every Fragment's fragment again, from its slabs; it is
		// reset to a fuzz-chosen count whenever that runs out, so cuts from
		// every slab size and every position in one are compared.
		var cut Cutter
		var held Msg
		var heldModel []byte

		verify := func(op string) {
			t.Helper()
			for _, p := range []*pair{orig, clone} {
				if p == nil {
					continue
				}
				if p.m.Len() != len(p.model) {
					t.Fatalf("%s: Len=%d, model has %d bytes", op, p.m.Len(), len(p.model))
				}
				if got := p.m.Bytes(); !bytes.Equal(got, p.model) {
					t.Fatalf("%s: Bytes=%x, model=%x", op, got, p.model)
				}
				for k := AttrKey(0); k < 4; k++ {
					v, ok := p.m.Attr(k)
					want, wantOK := p.attrs[k]
					if ok != wantOK || (ok && v.(byte) != want) {
						t.Fatalf("%s: Attr(%d)=%v,%v, model has %v,%v", op, k, v, ok, want, wantOK)
					}
				}
			}
		}

		for steps := 0; steps < 64 && cursor < len(data); steps++ {
			op := next()
			target := orig
			if op&8 != 0 && clone != nil {
				target = clone
			}
			m, model := target.m, target.model
			switch op % 8 {
			case 0: // Push
				hdr := chunk(int(next()) % 24)
				if err := m.Push(hdr); err != nil {
					if err != ErrLeaderFull {
						t.Fatalf("Push: %v", err)
					}
					break // leader exhausted: message unchanged
				}
				model = append(append([]byte(nil), hdr...), model...)
			case 1: // Pop
				n := int(next()) % (len(model) + 4)
				got, err := m.Pop(n)
				if n > len(model) {
					if err == nil {
						t.Fatalf("Pop(%d) beyond %d bytes succeeded", n, len(model))
					}
					break
				}
				if err != nil {
					t.Fatalf("Pop(%d): %v", n, err)
				}
				if !bytes.Equal(got, model[:n]) {
					t.Fatalf("Pop(%d)=%x, model prefix %x", n, got, model[:n])
				}
				model = model[n:]
			case 2: // Peek
				n := int(next()) % (len(model) + 4)
				got, err := m.Peek(n)
				if n > len(model) {
					if err == nil {
						t.Fatalf("Peek(%d) beyond %d bytes succeeded", n, len(model))
					}
					break
				}
				if err != nil {
					t.Fatalf("Peek(%d): %v", n, err)
				}
				if !bytes.Equal(got, model[:n]) {
					t.Fatalf("Peek(%d)=%x, model prefix %x", n, got, model[:n])
				}
			case 3: // Append (the Msg adopts the slice, so hand it a copy)
				data := chunk(int(next()) % 24)
				m.Append(append([]byte(nil), data...))
				model = append(model, data...)
			case 4: // Truncate
				n := int(next()) % (len(model) + 4)
				err := m.Truncate(n)
				if n > len(model) {
					if err == nil {
						t.Fatalf("Truncate(%d) beyond %d bytes succeeded", n, len(model))
					}
					break
				}
				if err != nil {
					t.Fatalf("Truncate(%d): %v", n, err)
				}
				model = model[:n]
			case 5: // Fragment: reads [off, off+n) without touching m
				if len(model) == 0 {
					break
				}
				// Bit 4 picks a leader the header bytes in range can go
				// into; with 16 they never fit beside lowerHeadroom.
				leader := 16
				if op&16 != 0 {
					leader = DefaultLeader
				}
				off := int(next()) % len(model)
				n := int(next()) % (len(model) - off + 1)
				frag, err := m.Fragment(off, n, leader)
				if err != nil {
					t.Fatalf("Fragment(%d,%d) of %d bytes: %v", off, n, len(model), err)
				}
				if got := frag.Bytes(); !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("Fragment(%d,%d)=%x, want %x", off, n, got, model[off:off+n])
				}
				wantRoom := leader
				if take := min(m.headerLen()-off, n); take > 0 && take+lowerHeadroom <= leader {
					wantRoom -= take
				}
				if frag.Headroom() != wantRoom {
					t.Fatalf("Fragment(%d,%d, leader %d) of %d header bytes: headroom %d, want %d", off, n, leader, m.headerLen(), frag.Headroom(), wantRoom)
				}
				if cut.left <= 0 {
					cut.Reset(1 + int(next())%8)
				}
				spare := len(cut.slab) // 0: this cut starts a slab
				cf, err := cut.Fragment(m, off, n, leader)
				if err != nil {
					t.Fatalf("Cutter.Fragment(%d,%d): %v", off, n, err)
				}
				if !bytes.Equal(cf.Bytes(), frag.Bytes()) || cf.Len() != frag.Len() || cf.Headroom() != frag.Headroom() {
					t.Fatalf("Cutter.Fragment(%d,%d, leader %d), %d spare in the slab = %q len %d headroom %d; Fragment = %q len %d headroom %d",
						off, n, leader, spare, cf.Bytes(), cf.Len(), cf.Headroom(), frag.Bytes(), frag.Len(), frag.Headroom())
				}
			case 6: // Split + Join (and JoinAll onto the first fragment) rebuilds the message
				size := 1 + int(next())%64
				frags, err := m.Split(size, 16)
				if err != nil {
					t.Fatalf("Split(%d): %v", size, err)
				}
				rebuilt := Empty()
				for _, fr := range frags {
					rebuilt.Join(fr)
				}
				if got := rebuilt.Bytes(); !bytes.Equal(got, model) {
					t.Fatalf("Split(%d)+Join=%x, want %x", size, got, model)
				}
				frags[0].JoinAll(frags[1:])
				if got := frags[0].Bytes(); !bytes.Equal(got, model) {
					t.Fatalf("Split(%d)+JoinAll=%x, want %x", size, got, model)
				}
			case 7: // SetAttr on the target, then Clone it: same bytes and attrs, independent from here on
				k := AttrKey(next() % 4)
				v := next()
				m.SetAttr(k, v)
				target.attrs[k] = v
				clone = &pair{m: m.Clone(), model: append([]byte(nil), model...), attrs: map[AttrKey]byte{}}
				for k, v := range target.attrs {
					clone.attrs[k] = v
				}
				orig = target
			}
			target.model = model
			verify("step")
			if got := held.Bytes(); !bytes.Equal(got, heldModel) {
				t.Fatalf("step changed the copy held before it: %x, held as %x", got, heldModel)
			}
			target.m.HoldInto(&held)
			heldModel = append([]byte(nil), model...)
			if got := held.Bytes(); !bytes.Equal(got, heldModel) || held.Len() != len(heldModel) {
				t.Fatalf("HoldInto=%x (Len %d), want %x", got, held.Len(), heldModel)
			}
			for k := AttrKey(0); k < 4; k++ {
				if _, ok := held.Attr(k); ok {
					t.Fatalf("HoldInto kept attribute %d", k)
				}
			}
		}
	})
}
