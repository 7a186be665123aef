// Package wiretest is the executable form of the transport seam's
// contract: a reusable harness any wire.Wire implementation must pass.
// The simulator, the UDP backend, and the fault injector all run it;
// a future backend (a raw-socket wire, a shared-memory ring) proves
// itself by running it too.
//
// The harness never reads a clock. Waiting is blocking channel
// receives — the test binary's own timeout backstops a broken backend —
// and goroutine settling is delegated to internal/settle, so the
// harness stays legal under the clockpurity pass that governs the wire
// subtree.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/settle"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// Options tunes the harness to the backend's delivery model.
type Options struct {
	// Lossy relaxes exact-delivery accounting for backends that may
	// shed frames under pressure (a real socket's buffers are
	// finite): the concurrent-sender subtest then requires only that
	// some frames arrive and that deliveries never exceed sends.
	Lossy bool
	// Patience is the wall-clock allowance settle gets for listener
	// goroutines to exit after Close; zero suits goroutine-free
	// backends like the simulator.
	Patience time.Duration
}

var (
	hostA = xk.EthAddr{0x02, 0xC0, 0, 0, 0, 1}
	hostB = xk.EthAddr{0x02, 0xC0, 0, 0, 0, 2}
	hostC = xk.EthAddr{0x02, 0xC0, 0, 0, 0, 3}
)

// frame builds a well-formed ethernet frame the way the driver does.
func frame(dst, src xk.EthAddr, typ uint16, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	binary.BigEndian.PutUint16(f[12:14], typ)
	copy(f[14:], payload)
	return f
}

// Run drives the full contract against a fresh Wire per subtest. mk
// must return an open Wire; the harness closes it.
func Run(t *testing.T, mk func(t *testing.T) wire.Wire, opt Options) {
	t.Run("AttachDetach", func(t *testing.T) { testAttachDetach(t, mk(t)) })
	t.Run("MTU", func(t *testing.T) { testMTU(t, mk(t)) })
	t.Run("Unicast", func(t *testing.T) { testUnicast(t, mk(t)) })
	t.Run("Broadcast", func(t *testing.T) { testBroadcast(t, mk(t)) })
	t.Run("ReceiverReplace", func(t *testing.T) { testReceiverReplace(t, mk(t)) })
	t.Run("MsgPair", func(t *testing.T) { testMsgPair(t, mk(t)) })
	t.Run("ConcurrentSenders", func(t *testing.T) { testConcurrentSenders(t, mk(t), opt) })
	t.Run("CloseSettles", func(t *testing.T) { testCloseSettles(t, mk, opt) })
}

func attach(t *testing.T, w wire.Wire, a xk.EthAddr) (wire.Link, chan []byte) {
	t.Helper()
	l, err := w.Attach(a)
	if err != nil {
		t.Fatalf("attach %s: %v", a, err)
	}
	got := make(chan []byte, 1024)
	l.SetReceiver(func(f []byte) { got <- f })
	return l, got
}

func testAttachDetach(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, _ := attach(t, w, hostA)
	lb, gotB := attach(t, w, hostB)

	if got := la.Addr(); got != hostA {
		t.Fatalf("Addr = %s, want %s", got, hostA)
	}
	if _, err := w.Attach(hostA); !errors.Is(err, wire.ErrDuplicateAddr) {
		t.Fatalf("duplicate attach: got %v, want ErrDuplicateAddr", err)
	}

	// Detach frees the address: frames to it vanish as no-dest...
	w.Detach(lb)
	if err := la.Send(hostB, frame(hostB, hostA, 1, nil)); err != nil {
		t.Fatalf("send to detached: %v", err)
	}
	if s := w.Stats(); s.FramesNoDest != 1 {
		t.Fatalf("FramesNoDest = %d, want 1", s.FramesNoDest)
	}
	// ...and a send from the detached link either fails ErrDetached
	// or goes nowhere; it must not panic.
	if err := lb.Send(hostA, frame(hostA, hostB, 1, nil)); err != nil && !errors.Is(err, wire.ErrDetached) {
		t.Fatalf("send from detached: %v", err)
	}
	// Detaching twice is a no-op.
	w.Detach(lb)

	// The crash model: a Reattacher restores the link, receiver intact.
	if r, ok := w.(wire.Reattacher); ok {
		if err := r.Reattach(lb); err != nil {
			t.Fatalf("reattach: %v", err)
		}
		want := frame(hostB, hostA, 2, []byte("after reboot"))
		if err := la.Send(hostB, want); err != nil {
			t.Fatalf("send after reattach: %v", err)
		}
		if got := <-gotB; !bytes.Equal(got, want) {
			t.Fatal("frame mangled after reattach")
		}
	}
}

func testMTU(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, _ := attach(t, w, hostA)
	_, gotB := attach(t, w, hostB)

	max := wire.MaxFrame(w.MTU())
	over := make([]byte, max+1)
	copy(over[0:6], hostB[:])
	if err := la.Send(hostB, over); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("oversize send: got %v, want ErrFrameTooBig", err)
	}
	if err := la.Send(hostB, over[:max]); err != nil {
		t.Fatalf("max-size send refused: %v", err)
	}
	if got := <-gotB; len(got) != max {
		t.Fatalf("max-size frame arrived as %d bytes, want %d", len(got), max)
	}
}

func testUnicast(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, gotA := attach(t, w, hostA)
	lb, gotB := attach(t, w, hostB)

	want := frame(hostB, hostA, 0x3000, []byte("unicast payload"))
	if err := la.Send(hostB, want); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := <-gotB; !bytes.Equal(got, want) {
		t.Fatalf("frame mangled: got %x want %x", got, want)
	}
	back := frame(hostA, hostB, 0x3000, []byte("reply"))
	if err := lb.Send(hostA, back); err != nil {
		t.Fatalf("reply: %v", err)
	}
	if got := <-gotA; !bytes.Equal(got, back) {
		t.Fatal("reply mangled")
	}

	// Unicast into the void is silent: an error would leak the
	// wire's topology into protocol error paths.
	if err := la.Send(hostC, frame(hostC, hostA, 1, nil)); err != nil {
		t.Fatalf("no-dest unicast: %v", err)
	}
	s := w.Stats()
	if s.FramesNoDest != 1 {
		t.Fatalf("FramesNoDest = %d, want 1", s.FramesNoDest)
	}
	if s.FramesSent < 3 || s.FramesDelivered < 2 || s.BytesSent == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

func testBroadcast(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, gotA := attach(t, w, hostA)
	_, gotB := attach(t, w, hostB)
	_, gotC := attach(t, w, hostC)

	want := frame(xk.BroadcastEth, hostA, 0x0806, []byte("who-has"))
	if err := la.Send(xk.BroadcastEth, want); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if got := <-gotB; !bytes.Equal(got, want) {
		t.Fatal("B: broadcast mangled")
	}
	if got := <-gotC; !bytes.Equal(got, want) {
		t.Fatal("C: broadcast mangled")
	}
	// The sender is excluded from its own fan-out, structurally: by
	// the time both receivers have the frame, anything bound for the
	// sender would have been dispatched too.
	select {
	case <-gotA:
		t.Fatal("sender heard its own broadcast")
	default:
	}
}

func testReceiverReplace(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, _ := attach(t, w, hostA)
	lb, old := attach(t, w, hostB)

	replacement := make(chan []byte, 16)
	lb.SetReceiver(func(f []byte) { replacement <- f })
	want := frame(hostB, hostA, 5, []byte("to the new receiver"))
	if err := la.Send(hostB, want); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := <-replacement; !bytes.Equal(got, want) {
		t.Fatal("frame mangled after receiver replacement")
	}
	select {
	case <-old:
		t.Fatal("old receiver still hearing frames")
	default:
	}
}

// testMsgPair holds the message pair to the byte pair's wire: whichever
// form a frame is sent in and whichever form the receiver takes, the same
// bytes arrive; the one receive slot belongs to the last Set call; no
// attribute crosses; the MTU refuses a message at the length it refuses
// a slice.
func testMsgPair(t *testing.T, w wire.Wire) {
	defer w.Close()
	la, _ := attach(t, w, hostA)
	lb, gotBytes := attach(t, w, hostB)

	payload := []byte("a frame crosses the wire as the message")
	want := frame(hostB, hostA, 0x3000, payload)
	// The driver's shape: payload in a block, header pushed on the leader.
	build := func() *msg.Msg {
		m := msg.New(payload)
		m.MustPush(want[:14])
		m.SetAttr(1, "the sender's")
		return m
	}

	if err := la.SendMsg(hostB, build()); err != nil {
		t.Fatalf("SendMsg to a byte receiver: %v", err)
	}
	if got := <-gotBytes; !bytes.Equal(got, want) {
		t.Fatalf("message flattened for a byte receiver: got %x want %x", got, want)
	}

	gotMsg := make(chan *msg.Msg, 16)
	lb.SetMsgReceiver(func(m *msg.Msg) { gotMsg <- m })
	if err := la.SendMsg(hostB, build()); err != nil {
		t.Fatalf("SendMsg to a message receiver: %v", err)
	}
	if err := la.Send(hostB, want); err != nil {
		t.Fatalf("Send to a message receiver: %v", err)
	}
	for _, form := range []string{"message", "bytes"} {
		got := <-gotMsg
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("frame sent as %s mangled for a message receiver", form)
		}
		if _, ok := got.Attr(1); ok {
			t.Fatalf("frame sent as %s: an attribute crossed the wire", form)
		}
	}
	select {
	case <-gotBytes:
		t.Fatal("the replaced byte receiver still hears frames")
	default:
	}

	max := wire.MaxFrame(w.MTU())
	if err := la.SendMsg(hostB, msg.New(make([]byte, max+1))); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("oversize SendMsg: got %v, want ErrFrameTooBig", err)
	}
	atMax := make([]byte, max)
	copy(atMax, hostB[:])
	if err := la.SendMsg(hostB, msg.New(atMax)); err != nil {
		t.Fatalf("max-size SendMsg refused: %v", err)
	}
	if got := <-gotMsg; got.Len() != max {
		t.Fatalf("max-size message arrived as %d bytes, want %d", got.Len(), max)
	}
}

func testConcurrentSenders(t *testing.T, w wire.Wire, opt Options) {
	defer w.Close()
	const senders, perSender = 8, 40
	sink, err := w.Attach(hostA)
	if err != nil {
		t.Fatalf("attach sink: %v", err)
	}
	var received atomic.Int64
	all := make(chan struct{})
	first := make(chan struct{})
	var firstOnce sync.Once
	sink.SetReceiver(func(f []byte) {
		firstOnce.Do(func() { close(first) })
		if received.Add(1) == senders*perSender {
			close(all)
		}
	})

	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		src := xk.EthAddr{0x02, 0xC0, 0, 0, 1, byte(i)}
		l, err := w.Attach(src)
		if err != nil {
			t.Fatalf("attach sender %d: %v", i, err)
		}
		wg.Add(1)
		go func(l wire.Link, src xk.EthAddr) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				f := frame(hostA, src, uint16(j), []byte{src[5], byte(j)})
				if err := l.Send(hostA, f); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(l, src)
	}
	wg.Wait()

	if opt.Lossy {
		// A real socket may shed frames under pressure; the contract
		// here is weaker: something arrives, and accounting never
		// invents frames.
		<-first
		s := w.Stats()
		if got := received.Load(); got < 1 || got > senders*perSender {
			t.Fatalf("received %d frames, want 1..%d", got, senders*perSender)
		}
		if s.FramesDelivered > s.FramesSent {
			t.Fatalf("delivered %d > sent %d", s.FramesDelivered, s.FramesSent)
		}
		return
	}
	<-all
	if got := received.Load(); got != senders*perSender {
		t.Fatalf("received %d frames, want %d", got, senders*perSender)
	}
}

func testCloseSettles(t *testing.T, mk func(t *testing.T) wire.Wire, opt Options) {
	baseline := runtime.NumGoroutine()
	w := mk(t)
	la, _ := attach(t, w, hostA)
	_, gotB := attach(t, w, hostB)
	want := frame(hostB, hostA, 9, []byte("last frame"))
	if err := la.Send(hostB, want); err != nil {
		t.Fatalf("send: %v", err)
	}
	<-gotB
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	settle.Expect(t, baseline, opt.Patience)
}
