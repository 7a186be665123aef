package channel_test

// Crash-recovery behaviour added with the execution ledger: a server
// backed by a durable (file) ledger answers a request its previous
// incarnation executed with the recorded reply, byte-for-byte, instead
// of widening to errRebooted.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/channel"
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

// TestLedgerLookupOnlyWhenConsulted: the serve path asks the ledger
// only when the answer is used. A fault-free request on a known channel
// costs no Lookup and one Record, however many fragments carried it; the
// request that creates the channel state looks its recovery seed up once;
// a duplicate, and a request naming a dead incarnation, make the one
// lookup that decides between replay and drop or reject.
func TestLedgerLookupOnlyWhenConsulted(t *testing.T) {
	led := ledger.NewMem(ledger.MemOptions{})
	var seen ledger.Stats
	b := build(t, sim.Config{}, channel.Config{Ledger: led})
	served := echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	call := func(payload []byte) error {
		_, err := s.Call(msg.New(payload))
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
	b.inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)
	done := make(chan error, 1)
	go func() { done <- call([]byte("reply lost once")) }()
	for i := 0; b.clock.PendingCount() == 0; i++ {
		if i == 5000 {
			t.Fatal("call never armed its retransmission timeout")
		}
		time.Sleep(time.Millisecond)
	}
	b.clock.AdvanceToNext()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := b.sc.Stats().ReplayedReplies; got != 1 {
		t.Fatalf("ReplayedReplies = %d, want 1", got)
	}
	expectLedger(t, led, &seen, "a call whose retransmission is a duplicate", 1, 1)

	for _, size := range []int{0, 64, 16 * 1024, 1, 4096} { // 16 KB: twelve fragments
		if err := call(msg.MakeData(size)); err != nil {
			t.Fatal(err)
		}
	}
	expectLedger(t, led, &seen, "five fault-free calls", 0, 5)

	b.sc.Reboot()
	if err := call([]byte("stale")); !errors.Is(err, xk.ErrPeerRebooted) {
		t.Fatalf("call into the new incarnation: %v, want ErrPeerRebooted", err)
	}
	expectLedger(t, led, &seen, "a stale-epoch request", 1, 0)
	if err := call([]byte("converged")); err != nil {
		t.Fatal(err)
	}
	expectLedger(t, led, &seen, "first contact with the new incarnation", 1, 1)
	if *served != 8 {
		t.Fatalf("handler ran %d times for 8 executed calls", *served)
	}
}

func TestLedgerReplayAcrossCrash(t *testing.T) {
	led, err := ledger.NewFile(t.TempDir(), ledger.FileOptions{Fsync: ledger.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	b := build(t, sim.Config{}, channel.Config{Ledger: led})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)

	// First contact teaches the client the server's incarnation.
	if _, err := s.Call(msg.New([]byte("warm"))); err != nil {
		t.Fatal(err)
	}

	// Eat the next unicast server-to-client frame: the doomed call's
	// reply is recorded in the ledger but never reaches the client.
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	b.inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)

	payload := []byte("replay me byte for byte")
	done := make(chan struct{})
	var reply *msg.Msg
	var callErr error
	go func() {
		reply, callErr = s.Call(msg.New(payload))
		close(done)
	}()
	// Wait for the request to execute, then crash the server before
	// the client's retransmission timer fires.
	for i := 0; i < 1000 && b.sc.Stats().RequestsServed < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if b.sc.Stats().RequestsServed != 2 {
		t.Fatal("doomed call never executed")
	}
	b.sc.Reboot()

	for i := 0; i < 200; i++ {
		select {
		case <-done:
			i = 200
		default:
			b.clock.Advance(60 * time.Millisecond)
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
	if !bytes.Equal(reply.Bytes(), payload) {
		t.Fatalf("replayed reply = %q, want %q", reply.Bytes(), payload)
	}
	st := b.sc.Stats()
	if st.RequestsServed != 2 {
		t.Fatalf("handler re-ran after the crash: RequestsServed = %d", st.RequestsServed)
	}
	if st.LedgerReplays != 1 {
		t.Fatalf("LedgerReplays = %d, want 1", st.LedgerReplays)
	}
	if st.StaleEpochRejects != 0 {
		t.Fatalf("replayable request was rejected %d times", st.StaleEpochRejects)
	}
	ls := led.Stats()
	if ls.Recoveries != 1 || ls.RecoveredRecords == 0 {
		t.Fatalf("ledger recovery stats %+v", ls)
	}

	// The replayed reply named the dead incarnation, so the next call's
	// hint is stale and has no ledger entry: exactly one typed reject,
	// then the client converges on the new boot id.
	if _, err := s.Call(msg.New([]byte("next"))); !errors.Is(err, xk.ErrPeerRebooted) {
		t.Fatalf("post-replay call: got %v, want ErrPeerRebooted", err)
	}
	if _, err := s.Call(msg.New([]byte("converged"))); err != nil {
		t.Fatalf("call after convergence: %v", err)
	}
	if got := b.sc.Stats().RequestsServed; got != 3 {
		t.Fatalf("RequestsServed = %d, want 3", got)
	}
	// Two recovery seeds (warm; converged, whose channel state died with
	// the crash), the replay's lookup and the reject's; three executions.
	expectLedger(t, led, new(ledger.Stats), "the whole crash and recovery", 4, 3)
}

// TestLedgerVolatileMatchesPaperSemantics pins the contrast: the same
// crash with the default in-memory ledger loses the recorded reply, so
// the doomed call fails typed — the paper's at-most-once-since-boot.
func TestLedgerVolatileMatchesPaperSemantics(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{})
	echoServer(t, b.sc)
	s := open(t, b.cc, 0)
	if _, err := s.Call(msg.New([]byte("warm"))); err != nil {
		t.Fatal(err)
	}
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	b.inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)
	done := make(chan error, 1)
	go func() {
		_, err := s.Call(msg.New([]byte("doomed")))
		done <- err
	}()
	for i := 0; i < 1000 && b.sc.Stats().RequestsServed < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	b.sc.Reboot()
	var callErr error
	for i := 0; i < 200; i++ {
		select {
		case callErr = <-done:
			i = 200
		default:
			b.clock.Advance(60 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	if !errors.Is(callErr, xk.ErrPeerRebooted) {
		t.Fatalf("got %v, want ErrPeerRebooted (volatile ledger cannot replay)", callErr)
	}
	if got := b.sc.Stats().RequestsServed; got != 2 {
		t.Fatalf("handler re-ran: RequestsServed = %d", got)
	}
}

// TestReplyLostAfterAckIsReplayed: a request the server has acknowledged
// is still the client's to recover. The handler replies from its own
// goroutine after the client recorded an explicit ack, and that reply
// is lost on the wire. An acked client keeps probing (the one ack rule:
// everything acknowledged, the retransmission re-sends it all), and the
// probe that finds the request finished draws the recorded reply from
// the ledger. The handler runs once.
func TestReplyLostAfterAckIsReplayed(t *testing.T) {
	b := build(t, sim.Config{}, channel.Config{MaxRetries: 3})
	release := make(chan struct{})
	replied := make(chan error, 1)
	var served atomic.Int32
	app := xk.NewApp("srv", nil)
	app.Deliver = func(s xk.Session, m *msg.Msg) error {
		served.Add(1)
		ss := s.(*channel.ServerSession)
		go func() {
			<-release
			replied <- ss.Push(msg.New([]byte("done")))
		}()
		return nil
	}
	if err := b.sc.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	s := open(t, b.cc, 0)
	done := make(chan error, 1)
	go func() {
		reply, err := s.Call(msg.New([]byte("slow request")))
		if err == nil && string(reply.Bytes()) != "done" {
			err = fmt.Errorf("reply %q, want \"done\"", reply.Bytes())
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
	waitFor("the call armed its timeout", func() bool { return b.clock.PendingCount() > 0 })
	b.clock.AdvanceToNext()
	waitFor("the client recorded an ack", func() bool { return b.cc.Stats().AcksReceived > 0 })
	waitFor("the call re-armed its timeout", func() bool { return b.clock.PendingCount() > 0 })

	// The handler finishes; its reply is recorded and lost.
	serverMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 2}
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	b.inj.DropWhere(func(src, dst xk.EthAddr) bool { return src == serverMAC && dst == clientMAC }, 1)
	close(release)
	if err := <-replied; err != nil {
		t.Fatal(err)
	}

	// Only the client's next probe can recover it.
	var err error
	for finished := false; !finished; {
		select {
		case err = <-done:
			finished = true
		default:
			if b.clock.PendingCount() > 0 {
				b.clock.AdvanceToNext()
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if err != nil {
		t.Fatalf("call whose reply was lost after an ack: %v", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("handler ran %d times", n)
	}
	if st := b.sc.Stats(); st.ReplayedReplies != 1 {
		t.Fatalf("ReplayedReplies = %d, want 1", st.ReplayedReplies)
	}
}
