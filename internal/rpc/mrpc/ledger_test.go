package mrpc_test

// Crash recovery with a durable execution ledger: the monolithic stack's
// server replays a recorded multi-fragment reply byte-for-byte after a
// reboot instead of re-running the handler or widening the failure.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/mrpc"
	"xkernel/internal/sim"
	"xkernel/internal/xk"
)

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
