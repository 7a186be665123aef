package bench

import (
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/ledger"
	"xkernel/internal/sim"
)

func TestParseStack(t *testing.T) {
	cases := []struct {
		in   Stack
		base Stack
		spec string // "" = nil spec
		bad  bool
	}{
		{in: LRPCVIP, base: LRPCVIP},
		{in: LRPCVIP + "+mem", base: LRPCVIP, spec: "mem"},
		{in: LRPCVIP + "+wal-always", base: LRPCVIP, spec: "wal-always"},
		{in: MRPCVIP + "+wal-interval", base: MRPCVIP, spec: "wal-interval"},
		{in: NRPC + "+wal-never", base: NRPC, spec: "wal-never"},
		{in: LRPCVIP + "+wal-sometimes", bad: true},
		{in: LRPCVIP + "+disk", bad: true},
	}
	for _, c := range cases {
		base, spec, err := ParseStack(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseStack(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStack(%q): %v", c.in, err)
			continue
		}
		if base != c.base {
			t.Errorf("ParseStack(%q) base = %q, want %q", c.in, base, c.base)
		}
		got := ""
		if spec != nil {
			got = spec.String()
		}
		if got != c.spec {
			t.Errorf("ParseStack(%q) spec = %q, want %q", c.in, got, c.spec)
		}
		if b := c.in.Base(); b != c.base {
			t.Errorf("%q.Base() = %q, want %q", c.in, b, c.base)
		}
	}
}

func TestLedgeredStacksRoundTrip(t *testing.T) {
	for _, stack := range []Stack{
		LRPCVIP + "+mem",
		LRPCVIP + "+wal-always",
		MRPCVIP + "+wal-always",
		NRPC + "+wal-never",
		SelChanVIPsize + "+wal-always",
		ChanFragVIP + "+wal-always",
	} {
		t.Run(string(stack), func(t *testing.T) {
			tb, err := Build(stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			if tb.LedgerStats == nil || tb.ClientReboot == nil || tb.LedgerReplays == nil {
				t.Fatal("ledger hooks not populated")
			}
			for i := 0; i < 3; i++ {
				if err := tb.End.RoundTrip(nil); err != nil {
					t.Fatal(err)
				}
			}
			st := tb.LedgerStats()
			if st.Appends == 0 {
				t.Fatalf("no ledger appends after 3 calls: %+v", st)
			}
			if _, spec, _ := ParseStack(stack); spec.Kind == "wal" {
				if _, ok := tb.Ledger.(*ledger.File); !ok {
					t.Fatalf("ledger is %T, want *ledger.File", tb.Ledger)
				}
				if st.Bytes == 0 {
					t.Fatalf("file ledger recorded no bytes: %+v", st)
				}
			}
		})
	}
}

func TestUnledgerableStackRejectsSuffix(t *testing.T) {
	for _, stack := range []Stack{
		VIPOnly + "+wal-always",
		UDPIP + "+mem",
		SunRPCVIP + "+wal-never",
	} {
		if _, err := Build(stack, sim.Config{}, nil); err == nil {
			t.Errorf("Build(%q) accepted a ledger on a stack without at-most-once state", stack)
		}
	}
}

// TestLedgerSyncCounts holds the durability tax as exact fsync counts on
// a fake clock, per at-most-once engine. While no segment rotates the
// wal-never ledger never syncs. wal-always syncs once per executed
// request: one exec record per call, and a run of fresh calls retires
// nothing, so there is no tombstone to sync. wal-interval syncs once per
// SyncInterval tick that follows a record, however many records the tick
// covers — never once per record. (The clock moves only on the interval
// rows, where N.RPC answers each tick with a crash probe, itself an
// executed and recorded request; hence "at least N" records there.)
func TestLedgerSyncCounts(t *testing.T) {
	const (
		N        = 40
		ticks    = 5
		interval = 10 * time.Millisecond // ledger.FileOptions' default SyncInterval
	)
	for _, base := range []Stack{LRPCVIP, MRPCVIP, NRPC} {
		for _, policy := range []ledger.FsyncPolicy{ledger.FsyncNever, ledger.FsyncAlways, ledger.FsyncInterval} {
			stack := base + Stack("+wal-"+string(policy))
			t.Run(string(stack), func(t *testing.T) {
				clock := event.NewFake()
				tb, err := Build(stack, sim.Config{}, clock)
				if err != nil {
					t.Fatal(err)
				}
				defer tb.Close()
				// Sessions open (and N.RPC's first probe runs) before counting.
				if err := tb.End.RoundTrip(nil); err != nil {
					t.Fatal(err)
				}
				before := tb.LedgerStats()
				for i := 1; i <= N; i++ {
					if err := tb.End.RoundTrip(nil); err != nil {
						t.Fatal(err)
					}
					if policy == ledger.FsyncInterval && i%(N/ticks) == 0 {
						clock.Advance(interval)
					}
				}
				after := tb.LedgerStats()
				records, syncs := after.Appends-before.Appends, after.Syncs-before.Syncs
				switch policy {
				case ledger.FsyncNever:
					if records != N || syncs != 0 {
						t.Errorf("%d records, %d fsyncs for %d calls, want %d and none", records, syncs, N, N)
					}
				case ledger.FsyncAlways:
					if records != N || syncs != N {
						t.Errorf("%d records, %d fsyncs for %d calls, want one each per call", records, syncs, N)
					}
				case ledger.FsyncInterval:
					if records < N || syncs != ticks {
						t.Errorf("%d records, %d fsyncs for %d calls over %d ticks, want one fsync per tick", records, syncs, N, ticks)
					}
				}
			})
		}
	}
}
