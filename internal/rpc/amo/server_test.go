package amo_test

import (
	"bytes"
	"errors"
	"testing"

	"xkernel/internal/ledger"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/amo"
	"xkernel/internal/xk"
)

var (
	chanKey = ledger.Key{Peer: xk.IP(10, 0, 0, 1), Proto: 240, Channel: 3}
	// thisBoot is the host's incarnation; an epoch hint naming it is
	// current, and staleHint names the one before.
	thisBoot  uint32 = 2
	staleHint        = uint16(thisBoot - 1)
)

// request is seq from client incarnation 1, with a current epoch hint.
func request(seq uint32) amo.Request {
	return amo.Request{Key: chanKey, Hint: uint16(thisBoot), ClientBoot: 1, Seq: seq}
}

// serve runs r through admission as new work and, unless executing is
// set, records reply for it, as an engine does after its handler. It
// returns the channel and the capture a handler still executing replies
// under.
func serve(t *testing.T, h *amo.Host, r amo.Request, reply string, executing bool) (*amo.Chan, amo.Capture) {
	t.Helper()
	ch, v, _ := h.Admit(r)
	if v != amo.New {
		t.Fatalf("setup: seq %d admitted as %d, want New", r.Seq, v)
	}
	cp := ch.Commit(r.Seq)
	if executing {
		return ch, cp
	}
	if err := ch.Record(cp, msg.New([]byte(reply))); err != nil {
		t.Fatal(err)
	}
	return ch, cp
}

func abort(ch *amo.Chan, cp amo.Capture) { ch.Abort(cp) }

// parked is the capture of the handler a row's setup leaves executing,
// for the rows whose then finishes it late.
var parked amo.Capture

// TestAdmission holds the server half to its table: each row builds a
// host on a fresh ledger.Mem, admits one request, and checks the verdict,
// the reply it replays, and what it cost the ledger — lookups read from
// the ledger's own Stats, and retirements. A row's then, if any, runs
// last, on the channel the request was admitted to.
func TestAdmission(t *testing.T) {
	rows := []struct {
		name    string
		setup   func(t *testing.T, h *amo.Host, led ledger.ExecLedger)
		req     amo.Request
		want    amo.Verdict
		reply   string // replayed
		lookups int64
		retires int64
		chans   int // server channels after admission
		then    func(t *testing.T, h *amo.Host, ch *amo.Chan, led ledger.ExecLedger)
	}{
		{
			name: "stale hint, the ledger holds exactly this request",
			setup: func(t *testing.T, h *amo.Host, led ledger.ExecLedger) {
				if err := led.Record(chanKey, ledger.Entry{ClientBoot: 1, Seq: 7, Reply: ledger.EncodeFrames([]byte("before the crash"))}); err != nil {
					t.Fatal(err)
				}
			},
			req:  amo.Request{Key: chanKey, Hint: staleHint, ClientBoot: 1, Seq: 7},
			want: amo.Replay, reply: "before the crash", lookups: 1,
		},
		{
			name: "stale hint, the ledger holds another request",
			setup: func(t *testing.T, h *amo.Host, led ledger.ExecLedger) {
				if err := led.Record(chanKey, ledger.Entry{ClientBoot: 1, Seq: 6, Reply: ledger.EncodeFrames([]byte("older"))}); err != nil {
					t.Fatal(err)
				}
			},
			req:  amo.Request{Key: chanKey, Hint: staleHint, ClientBoot: 1, Seq: 7},
			want: amo.Reject, lookups: 1,
		},
		{
			name: "first contact, no seed",
			req:  request(1),
			want: amo.New, lookups: 1, chans: 1,
		},
		{
			name: "first contact, seeded by the request the ledger holds",
			setup: func(t *testing.T, h *amo.Host, led ledger.ExecLedger) {
				if err := led.Record(chanKey, ledger.Entry{ClientBoot: 1, Seq: 7, Reply: ledger.EncodeFrames([]byte("recovered"))}); err != nil {
					t.Fatal(err)
				}
			},
			req:  request(7),
			want: amo.Replay, reply: "recovered", lookups: 2, chans: 1, // the seed, then the replay
		},
		{
			name: "first contact, seeded, an older request",
			setup: func(t *testing.T, h *amo.Host, led ledger.ExecLedger) {
				if err := led.Record(chanKey, ledger.Entry{ClientBoot: 1, Seq: 7, Reply: ledger.EncodeFrames([]byte("recovered"))}); err != nil {
					t.Fatal(err)
				}
			},
			req:  request(6),
			want: amo.Drop, lookups: 1, chans: 1,
		},
		{
			name:  "client reboot",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { serve(t, h, request(5), "old life", false) },
			req:   amo.Request{Key: chanKey, Hint: uint16(thisBoot), ClientBoot: 2, Seq: 1},
			want:  amo.New, retires: 1, chans: 1,
		},
		{
			name:  "an older sequence number",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { serve(t, h, request(5), "five", false) },
			req:   request(4),
			want:  amo.Drop, chans: 1,
		},
		{
			name:  "the same sequence number while it executes",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { serve(t, h, request(5), "", true) },
			req:   request(5),
			want:  amo.Ack, chans: 1,
		},
		{
			name:  "the same sequence number after it finished",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { serve(t, h, request(5), "five", false) },
			req:   request(5),
			want:  amo.Replay, reply: "five", lookups: 1, chans: 1,
		},
		{
			name:  "a new sequence number",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { serve(t, h, request(5), "five", false) },
			req:   request(6),
			want:  amo.New, chans: 1,
		},
		{
			// An engine error between Commit and Record (a reply too long
			// to frame) aborts the execution: the channel is not held by a
			// request that will never record, and its retransmissions are
			// dropped.
			name:  "a higher sequence number after an aborted execution",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { abort(serve(t, h, request(5), "", true)) },
			req:   request(6),
			want:  amo.New, chans: 1,
		},
		{
			name:  "the same sequence number after its execution was aborted",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { abort(serve(t, h, request(5), "", true)) },
			req:   request(5),
			want:  amo.Drop, lookups: 1, chans: 1,
		},
		{
			// One request at a time: the newer request waits, acknowledged,
			// and the handler still running for seq 5 is superseded — its
			// reply is refused, and seq 6 is admitted on its next probe.
			name:  "a higher sequence number while one executes",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { _, parked = serve(t, h, request(5), "", true) },
			req:   request(6),
			want:  amo.Ack, chans: 1,
			then: func(t *testing.T, h *amo.Host, ch *amo.Chan, led ledger.ExecLedger) {
				if err := ch.Record(parked, msg.New([]byte("late"))); !errors.Is(err, amo.ErrStaleReply) {
					t.Fatalf("the superseded handler's Record: %v, want ErrStaleReply", err)
				}
				if _, ok := led.Lookup(chanKey); ok {
					t.Fatal("the superseded reply was recorded")
				}
				next, v, _ := h.Admit(request(6))
				if v != amo.New {
					t.Fatalf("seq 6's next probe is %d, want New", v)
				}
				next.Commit(6)
			},
		},
		{
			// A new client incarnation waits for the old one's handler too,
			// and flips the channel only once that handler is done; the
			// orphan's reply is neither recorded nor sent.
			name:  "Record after a client-reboot flip",
			setup: func(t *testing.T, h *amo.Host, _ ledger.ExecLedger) { _, parked = serve(t, h, request(5), "", true) },
			req:   amo.Request{Key: chanKey, Hint: uint16(thisBoot), ClientBoot: 2, Seq: 1},
			want:  amo.Ack, chans: 1,
			then: func(t *testing.T, h *amo.Host, ch *amo.Chan, led ledger.ExecLedger) {
				if err := ch.Record(parked, msg.New([]byte("orphan"))); !errors.Is(err, amo.ErrStaleReply) {
					t.Fatalf("the orphan's Record: %v, want ErrStaleReply", err)
				}
				if err := ch.Record(parked, msg.New([]byte("orphan"))); !errors.Is(err, amo.ErrStaleReply) {
					t.Fatalf("a second Record of the same request: %v, want ErrStaleReply", err)
				}
				if got := h.Counts().StaleReplies; got != 2 {
					t.Fatalf("StaleReplies = %d, want 2", got)
				}
				before := led.Stats()
				nch, v, _ := h.Admit(amo.Request{Key: chanKey, Hint: uint16(thisBoot), ClientBoot: 2, Seq: 1})
				if v != amo.New {
					t.Fatalf("the new incarnation's next probe is %d, want New", v)
				}
				cp := nch.Commit(1)
				if got := led.Stats().Retires - before.Retires; got != 1 {
					t.Fatalf("%d retirements at the flip, want 1", got)
				}
				if err := nch.Record(cp, msg.New([]byte("new life"))); err != nil {
					t.Fatal(err)
				}
				if e, ok := led.Lookup(chanKey); !ok || e.ClientBoot != 2 || e.Seq != 1 {
					t.Fatalf("ledger holds %+v (%v), want the new incarnation's seq 1", e, ok)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			led := ledger.NewMem(ledger.MemOptions{})
			var h amo.Host
			h.Init("test/amo", thisBoot, led)
			if row.setup != nil {
				row.setup(t, &h, led)
			}
			before := led.Stats()
			ch, v, replay := h.Admit(row.req)
			if v == amo.New {
				ch.Commit(row.req.Seq)
			}
			after := led.Stats()
			if v != row.want {
				t.Fatalf("verdict %d, want %d", v, row.want)
			}
			if v == amo.Replay && (len(replay) != 1 || !bytes.Equal(replay[0].Bytes(), []byte(row.reply))) {
				t.Fatalf("replays %v, want %q", replay, row.reply)
			}
			if got := after.Lookups - before.Lookups; got != row.lookups {
				t.Errorf("%d ledger lookups, want %d", got, row.lookups)
			}
			if got := after.Retires - before.Retires; got != row.retires {
				t.Errorf("%d retirements, want %d", got, row.retires)
			}
			if got := h.Chans(); got != row.chans {
				t.Errorf("%d server channels, want %d", got, row.chans)
			}
			if row.then != nil {
				row.then(t, &h, ch, led)
			}
		})
	}
}

// A client reboot resets the engine's per-channel state with the filter,
// and retires the old incarnation's ledger entry: the same sequence
// number is new work for the new incarnation.
func TestClientRebootResetsState(t *testing.T) {
	led := ledger.NewMem(ledger.MemOptions{})
	var h amo.Host
	h.Init("test/amo", thisBoot, led)
	ch, v, _ := h.Admit(request(5))
	if v != amo.New {
		t.Fatalf("verdict %d, want New", v)
	}
	st := &resetCounter{}
	ch.State = st
	cp := ch.Commit(5)
	if err := ch.Record(cp, msg.New([]byte("old"))); err != nil {
		t.Fatal(err)
	}
	ch, v, _ = h.Admit(amo.Request{Key: chanKey, Hint: uint16(thisBoot), ClientBoot: 2, Seq: 5})
	if v != amo.New {
		t.Fatalf("the new incarnation's seq 5 is %d, want New", v)
	}
	ch.Commit(5)
	if st.resets != 1 {
		t.Fatalf("engine state reset %d times, want 1", st.resets)
	}
	if _, ok := led.Lookup(chanKey); ok {
		t.Fatal("the old incarnation's entry survived its client's reboot")
	}
}

type resetCounter struct{ resets int }

func (r *resetCounter) ClientRebooted() { r.resets++ }
