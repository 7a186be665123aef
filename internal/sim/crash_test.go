package sim

// The crash model: Detach is a NIC vanishing with its host, Reattach the
// rebooted host's interface coming back, and a frame in the reorder hold
// must not outlive either end of its journey.

import "testing"

// TestDetachDropsHeldFrameForDeadReceiver is the regression test for
// the reorder-hold/Detach interaction: a frame held for reordering and
// addressed to a NIC that detaches before release must be dropped, not
// delivered to the NIC's post-reattach incarnation.
func TestDetachDropsHeldFrameForDeadReceiver(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 1})
	a, _ := collect(t, n, addrA)
	b, bFrames := collect(t, n, addrB)

	if err := a.Send(addrB, []byte{1}); err != nil { // held for reorder
		t.Fatal(err)
	}
	n.Detach(b)
	if err := n.Reattach(b); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if len(*bFrames) != 0 {
		t.Fatal("pre-detach held frame reached the reattached NIC")
	}
	if n.Stats().FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", n.Stats().FramesDropped)
	}
	// Fresh traffic flows normally after reattach.
	n.ResetStats()
	if err := a.Send(addrB, []byte{2}); err != nil {
		t.Fatal(err)
	}
	n.Flush() // frame 2 may itself be held (ReorderRate 1.0)
	if len(*bFrames) != 1 || (*bFrames)[0][0] != 2 {
		t.Fatalf("post-reattach frames = %v, want [2]", *bFrames)
	}
}

// TestDetachDropsHeldFrameFromDeadSender covers the other direction: a
// held frame whose sender detaches is dropped too.
func TestDetachDropsHeldFrameFromDeadSender(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 1})
	a, _ := collect(t, n, addrA)
	collect(t, n, addrB)
	if err := a.Send(addrB, []byte{1}); err != nil { // held
		t.Fatal(err)
	}
	n.Detach(a)
	if n.Stats().FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", n.Stats().FramesDropped)
	}
}

func TestReattachRejectsOccupiedAddress(t *testing.T) {
	n := New(Config{})
	a, _ := collect(t, n, addrA)
	n.Detach(a)
	if _, err := n.Attach(addrA); err != nil {
		t.Fatal(err)
	}
	if err := n.Reattach(a); err == nil {
		t.Fatal("Reattach over a live NIC accepted")
	}
}
