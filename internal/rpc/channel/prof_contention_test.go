package channel_test

// Seeded-contention proof for XKPROF: hammer one channel's serialized
// server state from many goroutines and check that the runtime's mutex
// profile, decoded by internal/obs/prof, attributes the waiting to the
// lockorder pass's class name for that lock — the contention report
// and the deadlock analyzer speak the same vocabulary.

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/obs/prof"
	"xkernel/internal/rpc/channel"
	"xkernel/internal/xk"
)

func TestSeededContentionNamesLockClass(t *testing.T) {
	if testing.Short() {
		t.Skip("contention seeding too heavy for -short")
	}
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	for attempt, iters := 0, 2000; attempt < 3; attempt, iters = attempt+1, iters*2 {
		hammerSrvChan(t, iters)

		var buf bytes.Buffer
		if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
			t.Fatal(err)
		}
		mp, err := prof.Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i := range mp.Samples {
			if prof.LockClass(&mp.Samples[i]) == "(amo.Chan).mu" {
				return
			}
		}
	}
	t.Fatal("no mutex sample attributed to (amo.Chan).mu after 3 rounds")
}

// hammerSrvChan delivers request frames for one channel id from many
// goroutines at once. Every path through serveRequest — fresh seq,
// duplicate, stale — serializes on that channel's lock in the
// at-most-once core (amo.Chan.mu). A
// durable file ledger (fsync per record) makes reply's write-ahead
// Record do real I/O while holding the lock, so the other deliveries
// actually block and the runtime records the contention even on a
// single-CPU machine where spin-length critical sections never would.
func hammerSrvChan(t *testing.T, iters int) {
	t.Helper()
	led, err := ledger.NewFile(t.TempDir(), ledger.FileOptions{Fsync: ledger.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	p, err := channel.New("prof/channel", &sinkProto{}, channel.Config{Clock: event.NewFake(), Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	srv := xk.NewApp("prof/srv", func(s xk.Session, m *msg.Msg) error {
		return s.(*channel.ServerSession).Push(msg.New(m.Bytes()))
	})
	if err := p.OpenEnable(srv, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const flagRequest uint16 = 1 << 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lls := &sinkSession{peer: fuzzPeer}
			for i := 0; i < iters; i++ {
				seq := uint32(g*1_000_000 + i + 1)
				fr := chFrame(flagRequest, 0, uint32(hlpProto), seq, 0, 1, nil)
				_ = p.Demux(lls, msg.New(fr))
			}
		}(g)
	}
	wg.Wait()
}
