package sim

import (
	"sync"
	"testing"
	"time"

	"xkernel/internal/xk"
)

var (
	addrA = xk.EthAddr{2, 0, 0, 0, 0, 1}
	addrB = xk.EthAddr{2, 0, 0, 0, 0, 2}
	addrC = xk.EthAddr{2, 0, 0, 0, 0, 3}
)

// collect attaches a NIC that appends received frames.
func collect(t *testing.T, n *Network, addr xk.EthAddr) (*NIC, *[][]byte) {
	t.Helper()
	nic, err := n.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	frames := &[][]byte{}
	nic.SetReceiver(func(f []byte) {
		mu.Lock()
		*frames = append(*frames, f)
		mu.Unlock()
	})
	return nic, frames
}

func TestUnicastDelivery(t *testing.T) {
	n := New(Config{})
	a, _ := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	_, cFrames := collect(t, n, addrC)

	if err := a.Send(addrB, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(*bFrames) != 1 || string((*bFrames)[0]) != "hello" {
		t.Fatalf("B got %v", *bFrames)
	}
	if len(*cFrames) != 0 {
		t.Fatal("unicast leaked to C")
	}
}

func TestBroadcastDelivery(t *testing.T) {
	n := New(Config{})
	a, aFrames := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	_, cFrames := collect(t, n, addrC)
	if err := a.Send(xk.BroadcastEth, []byte("all")); err != nil {
		t.Fatal(err)
	}
	if len(*bFrames) != 1 || len(*cFrames) != 1 {
		t.Fatal("broadcast missed a host")
	}
	if len(*aFrames) != 0 {
		t.Fatal("broadcast echoed to sender")
	}
}

func TestUnknownDestinationCounted(t *testing.T) {
	n := New(Config{})
	a, _ := collect(t, n, addrA)
	if err := a.Send(addrC, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n.Stats().FramesNoDest != 1 {
		t.Fatalf("FramesNoDest = %d", n.Stats().FramesNoDest)
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := New(Config{})
	if _, err := n.Attach(addrA); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(addrA); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestDetach(t *testing.T) {
	n := New(Config{})
	a, _ := collect(t, n, addrA)
	b, bFrames := collect(t, n, addrB)
	n.Detach(b)
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(*bFrames) != 0 {
		t.Fatal("detached NIC received a frame")
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(Config{MTU: 100})
	a, _ := collect(t, n, addrA)
	collect(t, n, addrB)
	if err := a.Send(addrB, make([]byte, 100+EthHeaderBytes+1)); err != ErrFrameTooBig {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
	if err := a.Send(addrB, make([]byte, 100+EthHeaderBytes)); err != nil {
		t.Fatal(err)
	}
}

func TestLossIsDeterministicAndCounted(t *testing.T) {
	run := func() (delivered int, dropped int64) {
		n := New(Config{LossRate: 0.5, Seed: 42})
		a, _ := collect(t, n, addrA)
		_, bFrames := collect(t, n, addrB)
		for i := 0; i < 100; i++ {
			if err := a.Send(addrB, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return len(*bFrames), n.Stats().FramesDropped
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
	if l1 == 0 || d1 == 0 {
		t.Fatalf("expected both losses and deliveries, got %d delivered %d lost", d1, l1)
	}
	if d1+int(l1) != 100 {
		t.Fatalf("accounting: %d + %d != 100", d1, l1)
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{DupRate: 1.0, Seed: 1})
	a, _ := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(*bFrames) != 2 {
		t.Fatalf("got %d copies, want 2", len(*bFrames))
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 1})
	a, _ := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	if err := a.Send(addrB, []byte{1}); err != nil { // held
		t.Fatal(err)
	}
	if len(*bFrames) != 0 {
		t.Fatal("held frame delivered early")
	}
	if err := a.Send(addrB, []byte{2}); err != nil {
		t.Fatal(err)
	}
	// Frame 2 goes out, then the held frame 1 follows it.
	if len(*bFrames) != 2 || (*bFrames)[0][0] != 2 || (*bFrames)[1][0] != 1 {
		t.Fatalf("order = %v", *bFrames)
	}
}

func TestFlushReleasesHeldFrame(t *testing.T) {
	n := New(Config{ReorderRate: 1.0, Seed: 1})
	a, _ := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	if err := a.Send(addrB, []byte{1}); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if len(*bFrames) != 1 {
		t.Fatal("Flush did not deliver the held frame")
	}
}

func TestCorruptionFlipsOneByte(t *testing.T) {
	n := New(Config{CorruptRate: 1.0, Seed: 5})
	a, _ := collect(t, n, addrA)
	_, bFrames := collect(t, n, addrB)
	orig := make([]byte, 64)
	sent := append([]byte(nil), orig...)
	if err := a.Send(addrB, sent); err != nil {
		t.Fatal(err)
	}
	if len(*bFrames) != 1 {
		t.Fatal("frame lost")
	}
	got := (*bFrames)[0]
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	// The sender's buffer must not be modified.
	for i := range sent {
		if sent[i] != orig[i] {
			t.Fatal("corruption mutated the sender's buffer")
		}
	}
}

func TestWireTimeAccounting(t *testing.T) {
	n := New(Config{}) // 10 Mbps default
	a, _ := collect(t, n, addrA)
	collect(t, n, addrB)
	payload := make([]byte, 1238-24) // 1238 bytes on the wire including overhead
	if err := a.Send(addrB, payload); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(1238*8) * time.Second / 10_000_000
	if got := n.Stats().WireTime; got != want {
		t.Fatalf("WireTime = %v, want %v", got, want)
	}
}

func TestLatencyDeliversAsynchronously(t *testing.T) {
	n := New(Config{Latency: 5 * time.Millisecond})
	a, _ := collect(t, n, addrA)
	got := make(chan []byte, 1)
	b, err := n.Attach(addrB)
	if err != nil {
		t.Fatal(err)
	}
	b.SetReceiver(func(f []byte) { got <- f })
	start := time.Now()
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
			t.Fatalf("delivered after %v, want >= ~5ms", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("frame never arrived")
	}
}

func TestResetStats(t *testing.T) {
	n := New(Config{})
	a, _ := collect(t, n, addrA)
	collect(t, n, addrB)
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	if s := n.Stats(); s.FramesSent != 0 || s.WireTime != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestAsyncDelivery(t *testing.T) {
	n := New(Config{Async: true})
	a, _ := collect(t, n, addrA)
	got := make(chan []byte, 1)
	b, err := n.Attach(addrB)
	if err != nil {
		t.Fatal(err)
	}
	b.SetReceiver(func(f []byte) { got <- f })
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("async frame never arrived")
	}
}
