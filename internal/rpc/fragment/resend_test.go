package fragment

import (
	"bytes"
	"testing"

	"xkernel/internal/msg"
)

// scattered are the fragments of a twelve-fragment message that the
// resend tests lose: neither a prefix nor a run, and cut from slabs of
// four, two and one when they are resent (msg.Cutter).
var scattered = []int{1, 5, 6, 11}

// A twelve-fragment message arrives missing fragments 1, 5, 6 and 11. The
// receiver's gap event asks for exactly those, the sender cuts them again
// from the message it holds, and the four resent frames are their first
// transmissions byte for byte. The receiver then delivers the message
// byte-identical to the one pushed, upper-layer header included.
func TestScatteredResendIsByteIdentical(t *testing.T) {
	bed := newOneFragBed(t)
	m := withHeaders(16 * 1024) // twelve fragments, the bulk_16k request
	want := m.Bytes()
	if err := bed.send.Push(m); err != nil {
		t.Fatal(err)
	}
	first := bed.tapA.frames
	bed.tapA.frames = nil
	if len(first) != 12 {
		t.Fatalf("first transmission: %d frames, want 12", len(first))
	}
	var have uint16 = 1<<12 - 1
	for _, i := range scattered {
		have &^= 1 << i
	}
	for i, fr := range first {
		if have&(1<<i) != 0 {
			bed.receive(t, fr)
		}
	}
	if len(bed.got) != 0 {
		t.Fatal("delivered with four fragments missing")
	}

	bed.clock.Advance(bed.b.cfg.GapTimeout)
	if h := bed.lastRequest(t); h.typ != typeResend || h.seq != 1 || h.numFrags != 12 || h.fragMask != have {
		t.Fatalf("receiver's request %+v, want a resend request for seq 1 having %#04x of 12", h, have)
	}
	llsA, err := bed.tapA.Open(bed.a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bed.a.Demux(llsA, msg.New(bed.tapB.frames[len(bed.tapB.frames)-1])); err != nil {
		t.Fatal(err)
	}
	resent := bed.tapA.frames
	if len(resent) != len(scattered) {
		t.Fatalf("resent %d frames, want %d", len(resent), len(scattered))
	}
	for k, i := range scattered {
		if !bytes.Equal(resent[k], first[i]) {
			t.Fatalf("resent fragment %d differs from its first transmission", i)
		}
	}
	bed.deliver(t)
	if len(bed.got) != 1 || !bytes.Equal(bed.got[0], want) {
		t.Fatalf("%d messages delivered; want the one pushed, byte for byte", len(bed.got))
	}
	if st := bed.a.Stats(); st.ResendsHonored != 1 || st.FragmentsSent != 12 {
		t.Fatalf("sender counters %+v", st)
	}
}
