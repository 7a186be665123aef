package mrpc_test

// Crash recovery with a durable execution ledger: the monolithic stack's
// server replays a recorded multi-fragment reply byte-for-byte after a
// reboot instead of re-running the handler or widening the failure.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/sim"
	"xkernel/internal/xk"
)

// expectLedger fails unless led served exactly lookups Lookups and records
// Records since *since was taken (the ledger's own counters, which a
// Reboot keeps), then advances *since.
func expectLedger(t *testing.T, led ledger.ExecLedger, since *ledger.Stats, step string, lookups, records int64) {
	t.Helper()
	now := led.Stats()
	if l, r := now.Lookups-since.Lookups, now.Appends-since.Appends; l != lookups || r != records {
		t.Fatalf("%s: %d ledger lookups and %d records, want %d and %d", step, l, r, lookups, records)
	}
	*since = now
}

// TestLedgerLookupOnlyWhenConsulted: the serve path asks the ledger only
// when the answer is used. A fault-free request on a known channel costs
// no Lookup — not one per fragment — and one Record; the request that
// creates the channel state looks its recovery seed up once; a duplicate,
// and a request naming a dead incarnation, make the one lookup that
// decides between replay and drop or reject.
func TestLedgerLookupOnlyWhenConsulted(t *testing.T) {
	led := ledger.NewMem(ledger.MemOptions{})
	var seen ledger.Stats
	clock := event.NewFake()
	// One channel, so every call after the first finds its server state.
	cli, srv, inj := testbed(t, "vip", sim.Config{}, clock, mrpc.Config{Ledger: led, NumChannels: 1})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	call := func(payload []byte) error {
		_, err := s.CallBytes(cmdEcho, payload)
		return err
	}

	if err := call([]byte("first contact")); err != nil {
		t.Fatal(err)
	}
	expectLedger(t, led, &seen, "the request that creates the channel state", 1, 1)

	// Lose one reply. The clock moves exactly once, when the call is parked
	// on its retransmission timeout, so there is exactly one duplicate.
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)
	done := make(chan error, 1)
	go func() { done <- call([]byte("reply lost once")) }()
	for i := 0; clock.PendingCount() == 0; i++ {
		if i == 5000 {
			t.Fatal("call never armed its retransmission timeout")
		}
		time.Sleep(time.Millisecond)
	}
	clock.AdvanceToNext()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().ReplayedReplies; got != 1 {
		t.Fatalf("ReplayedReplies = %d, want 1", got)
	}
	expectLedger(t, led, &seen, "a call whose retransmission is a duplicate", 1, 1)

	for _, size := range []int{0, 64, 16 * 1024, 1, 4096} { // 16 KB: twelve fragments
		if err := call(msg.MakeData(size)); err != nil {
			t.Fatal(err)
		}
	}
	expectLedger(t, led, &seen, "five fault-free calls", 0, 5)

	srv.Reboot()
	if err := call([]byte("stale")); !errors.Is(err, xk.ErrPeerRebooted) {
		t.Fatalf("call into the new incarnation: %v, want ErrPeerRebooted", err)
	}
	expectLedger(t, led, &seen, "a stale-epoch request", 1, 0)
	if err := call([]byte("converged")); err != nil {
		t.Fatal(err)
	}
	expectLedger(t, led, &seen, "first contact with the new incarnation", 1, 1)
	if got := srv.Stats().RequestsServed; got != 8 {
		t.Fatalf("handler ran %d times for 8 executed calls", got)
	}
}

func TestLedgerReplayAcrossCrashMultiFragment(t *testing.T) {
	led, err := ledger.NewFile(t.TempDir(), ledger.FileOptions{Fsync: ledger.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	clock := event.NewFake()
	cli, srv, inj := testbed(t, "vip", sim.Config{}, clock, mrpc.Config{Ledger: led})
	s := open(t, cli, xk.IP(10, 0, 0, 2))

	if _, err := s.CallBytes(cmdEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// A 4 KB echo reply spans three fragments. Eat exactly those three
	// unicast server-to-client frames: the reply is recorded in the
	// ledger but never reaches the client.
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 3)

	payload := msg.MakeData(4096)
	done := make(chan struct{})
	var got []byte
	var callErr error
	go func() {
		got, callErr = s.CallBytes(cmdEcho, payload)
		close(done)
	}()
	for i := 0; i < 1000 && srv.Stats().RequestsServed < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.Stats().RequestsServed != 2 {
		t.Fatal("doomed call never executed")
	}
	srv.Reboot()

	for i := 0; i < 400; i++ {
		select {
		case <-done:
			i = 400
		default:
			clock.Advance(40 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("call never completed after the crash")
	}
	if callErr != nil {
		t.Fatalf("call across crash failed: %v", callErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("replayed reply differs: got %d bytes, want %d identical bytes", len(got), len(payload))
	}
	st := srv.Stats()
	if st.RequestsServed != 2 {
		t.Fatalf("handler re-ran after the crash: RequestsServed = %d", st.RequestsServed)
	}
	if st.LedgerReplays == 0 {
		t.Fatal("no ledger replays counted")
	}
	ls := led.Stats()
	if ls.Recoveries != 1 || ls.RecoveredRecords == 0 {
		t.Fatalf("ledger recovery stats %+v", ls)
	}

	// The replay named the dead incarnation, so the next call draws one
	// typed reject carrying the new boot id, after which the client has
	// converged.
	if _, err := s.CallBytes(cmdEcho, []byte("next")); !errors.Is(err, xk.ErrPeerRebooted) {
		t.Fatalf("post-replay call: got %v, want ErrPeerRebooted", err)
	}
	if _, err := s.CallBytes(cmdEcho, []byte("converged")); err != nil {
		t.Fatalf("call after convergence: %v", err)
	}
	if gotServed := srv.Stats().RequestsServed; gotServed != 3 {
		t.Fatalf("RequestsServed = %d, want 3", gotServed)
	}
}

// TestReplyLostAfterAckIsReplayed: a request the server has acknowledged
// is still the client's to recover. The handler, parked on its own
// delivery goroutine (an asynchronous segment), finishes after the
// client recorded an explicit ack of every fragment, and its reply is
// lost on the wire. The one ack rule — everything acknowledged, the
// retransmission re-probes with it all — brings the recorded reply back
// from the ledger. The handler runs once.
func TestReplyLostAfterAckIsReplayed(t *testing.T) {
	clock := event.NewFake()
	cli, srv, inj := testbed(t, "vip", sim.Config{Async: true}, clock, mrpc.Config{})
	const cmdSlow uint16 = 9
	release := make(chan struct{})
	var served atomic.Int32
	srv.Register(cmdSlow, func(_ uint16, _ *msg.Msg) (*msg.Msg, error) {
		served.Add(1)
		<-release
		return msg.New([]byte("done")), nil
	})
	s := open(t, cli, xk.IP(10, 0, 0, 2))
	done := make(chan error, 1)
	go func() {
		reply, err := s.CallBytes(cmdSlow, []byte("slow request"))
		if err == nil && string(reply) != "done" {
			err = fmt.Errorf("reply %q, want \"done\"", reply)
		}
		done <- err
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; !cond(); i++ {
			if i == 5000 {
				t.Fatalf("never: %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The first timeout: the retransmission finds the handler running
	// and draws an explicit ack.
	waitFor("the handler ran", func() bool { return served.Load() == 1 })
	waitFor("the call armed its timeout", func() bool { return clock.PendingCount() > 0 })
	clock.AdvanceToNext()
	waitFor("the client recorded an ack", func() bool { return cli.Stats().AcksReceived > 0 })

	// The handler finishes; its reply is recorded and lost.
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)
	dropped := inj.Stats().FramesDropped
	close(release)
	waitFor("the reply was lost", func() bool { return inj.Stats().FramesDropped > dropped })

	// Only the client's next probe can recover it. Each expiry waits for
	// the probe's answer to cross the asynchronous segment.
	var err error
	for finished := false; !finished; {
		select {
		case err = <-done:
			finished = true
		case <-time.After(50 * time.Millisecond):
			clock.AdvanceToNext()
		}
	}
	if err != nil {
		t.Fatalf("call whose reply was lost after an ack: %v", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("handler ran %d times", n)
	}
	if st := srv.Stats(); st.ReplayedReplies != 1 {
		t.Fatalf("ReplayedReplies = %d, want 1", st.ReplayedReplies)
	}
}
