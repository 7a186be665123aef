package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"xkernel/internal/obs/span"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

func addr(b byte) xk.EthAddr { return xk.EthAddr{b, b, b, b, b, b} }

// TestConcurrentSendsAccountExactly hammers the fast path from many
// NICs at once and checks the atomic accounting adds up exactly: every
// frame either delivered or counted no-dest, byte totals exact, and
// every delivery reached the right receiver.
func TestConcurrentSendsAccountExactly(t *testing.T) {
	n := New(Config{})
	const senders = 8
	const frames = 2000
	var recvCount [senders]atomic.Int64
	nics := make([]*NIC, senders)
	for i := range nics {
		nic, err := n.Attach(addr(byte(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		nic.SetReceiver(func([]byte) { recvCount[i].Add(1) })
		nics[i] = nic
	}
	var wg sync.WaitGroup
	for i, nic := range nics {
		wg.Add(1)
		go func(i int, nic *NIC) {
			defer wg.Done()
			peer := addr(byte((i+1)%senders + 1))
			ghost := addr(0x7f) // never attached
			for f := 0; f < frames; f++ {
				payload := []byte{byte(i), byte(f), byte(f >> 8)}
				dst := peer
				if f%10 == 9 {
					dst = ghost
				}
				if err := nic.Send(dst, payload); err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
			}
		}(i, nic)
	}
	wg.Wait()
	st := n.Stats()
	if st.FramesSent != senders*frames {
		t.Fatalf("FramesSent = %d; want %d", st.FramesSent, senders*frames)
	}
	wantNoDest := int64(senders * frames / 10)
	if st.FramesNoDest != wantNoDest {
		t.Fatalf("FramesNoDest = %d; want %d", st.FramesNoDest, wantNoDest)
	}
	if st.FramesDelivered != st.FramesSent-wantNoDest {
		t.Fatalf("FramesDelivered = %d; want %d", st.FramesDelivered, st.FramesSent-wantNoDest)
	}
	if st.BytesSent != int64(senders*frames*3) {
		t.Fatalf("BytesSent = %d; want %d", st.BytesSent, senders*frames*3)
	}
	var got int64
	for i := range recvCount {
		got += recvCount[i].Load()
	}
	if got != st.FramesDelivered {
		t.Fatalf("receivers saw %d frames; segment delivered %d", got, st.FramesDelivered)
	}
}

// TestFastPathDisabledByScenarioState checks the flag bookkeeping: what
// can still push Sends onto the locked path (capture, spans, a
// probabilistic rate) does, and reverting it restores the fast path. The
// converse is the point of keeping scripted faults off the segment: an
// injector above it that has eaten a burst leaves the segment lock-free.
func TestFastPathDisabledByScenarioState(t *testing.T) {
	n := New(Config{})
	if _, err := n.Attach(addr(2)); err != nil {
		t.Fatal(err)
	}
	if !n.fast.Load() {
		t.Fatal("fresh fault-free segment should start fast")
	}

	n.SetCapture(func(FrameRecord) {})
	if n.fast.Load() {
		t.Fatal("capture left the fast path enabled")
	}
	n.SetCapture(nil)
	n.SetSpans(span.NewRecorder(16))
	if n.fast.Load() {
		t.Fatal("spans left the fast path enabled")
	}
	n.SetSpans(nil)
	if !n.fast.Load() {
		t.Fatal("fast path not restored after detaching capture and spans")
	}
	if nn := New(Config{LossRate: 0.1}); nn.fast.Load() {
		t.Fatal("probabilistic faults must pin the locked path")
	}

	inj := wire.NewInjector(n.AsWire())
	a, err := inj.Attach(addr(1))
	if err != nil {
		t.Fatal(err)
	}
	inj.DropNext(2)
	for i := 0; i < 3; i++ {
		if err := a.Send(addr(2), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := inj.Stats(); st.FramesDropped != 2 || st.FramesDelivered != 1 {
		t.Fatalf("burst of 2 in 3 sends: %+v", st)
	}
	if !n.fast.Load() {
		t.Fatal("a burst dropped above the segment took it off the fast path")
	}
}
