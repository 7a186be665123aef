package ledger

import (
	"bytes"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/xk"
)

func testKey(ch uint16) Key {
	return Key{Peer: xk.IPAddr{10, 0, 0, 1}, Proto: 5, Channel: ch}
}

func TestEncodeDecodeFramesRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("one")},
		{[]byte{}, []byte("two"), bytes.Repeat([]byte{0xab}, 1500)},
	}
	for _, frames := range cases {
		blob := EncodeFrames(frames...)
		// The same frames held as messages (a header pushed in front of
		// a payload, so they flatten from more than one piece) encode to
		// the same bytes.
		msgs := make([]*msg.Msg, len(frames))
		for i, f := range frames {
			hdr := min(len(f), 8)
			msgs[i] = msg.New(f[hdr:])
			msgs[i].MustPush(f[:hdr])
		}
		if !bytes.Equal(EncodeMsgs(msgs...), blob) {
			t.Fatalf("EncodeMsgs and EncodeFrames disagree on %d frames", len(frames))
		}
		got, err := DecodeFrames(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(frames) {
			t.Fatalf("frame count %d != %d", len(got), len(frames))
		}
		for i := range frames {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("frame %d mismatch", i)
			}
		}
	}
}

func TestDecodeFramesRejectsCorrupt(t *testing.T) {
	blob := EncodeFrames([]byte("hello"), []byte("world"))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeFrames(blob[:cut]); err == nil && cut != 1 {
			// blob[:1] is a valid zero-frame blob only when count==0;
			// here count==2 so every truncation must fail.
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	if _, err := DecodeFrames(append(blob, 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

func TestMemRecordLookupRetire(t *testing.T) {
	m := NewMem(MemOptions{})
	k := testKey(1)
	if _, ok := m.Lookup(k); ok {
		t.Fatal("lookup hit on empty ledger")
	}
	if err := m.Record(k, Entry{ClientBoot: 1, Seq: 7, Reply: []byte("r7")}); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Lookup(k)
	if !ok || e.Seq != 7 || string(e.Reply) != "r7" {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	// A new request on the channel replaces the entry (implicit ack).
	if err := m.Record(k, Entry{ClientBoot: 1, Seq: 8, Reply: []byte("r8")}); err != nil {
		t.Fatal(err)
	}
	if e, _ := m.Lookup(k); e.Seq != 8 {
		t.Fatalf("replace kept seq %d", e.Seq)
	}
	if got := m.Stats().Records; got != 1 {
		t.Fatalf("records = %d", got)
	}
	if err := m.Retire(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(k); ok {
		t.Fatal("lookup hit after retire")
	}
}

func TestMemRebootForgetsEverything(t *testing.T) {
	m := NewMem(MemOptions{})
	for ch := uint16(0); ch < 4; ch++ {
		m.Record(testKey(ch), Entry{ClientBoot: 1, Seq: 1, Reply: []byte("x")})
	}
	if err := m.Reboot(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Records != 0 || s.Bytes != 0 {
		t.Fatalf("post-reboot stats %+v", s)
	}
	if len(m.Dump()) != 0 {
		t.Fatal("dump not empty after reboot")
	}
}

func TestMemLRUEviction(t *testing.T) {
	// Cap fits two 100-byte replies; a third evicts the least
	// recently used channel.
	m := NewMem(MemOptions{MaxBytes: 200})
	reply := bytes.Repeat([]byte{1}, 100)
	m.Record(testKey(0), Entry{Seq: 1, Reply: reply})
	m.Record(testKey(1), Entry{Seq: 1, Reply: reply})
	m.Lookup(testKey(0)) // 0 is now most recently used
	m.Record(testKey(2), Entry{Seq: 1, Reply: reply})
	if _, ok := m.Lookup(testKey(1)); ok {
		t.Fatal("LRU channel 1 not evicted")
	}
	if _, ok := m.Lookup(testKey(0)); !ok {
		t.Fatal("recently used channel 0 evicted")
	}
	if _, ok := m.Lookup(testKey(2)); !ok {
		t.Fatal("new channel 2 evicted")
	}
	if s := m.Stats(); s.Evictions != 1 || s.Records != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMemEvictionNeverDropsNewest(t *testing.T) {
	// An entry bigger than the whole cap must still be stored: the
	// cache never evicts the record of the request being executed.
	m := NewMem(MemOptions{MaxBytes: 10})
	m.Record(testKey(0), Entry{Seq: 1, Reply: bytes.Repeat([]byte{1}, 64)})
	if _, ok := m.Lookup(testKey(0)); !ok {
		t.Fatal("oversized newest entry evicted")
	}
}

// TestLookupAllocsZero pins the ISSUE acceptance criterion: the
// in-memory lookup hot path performs zero allocations, measured
// through the interface the server request path uses.
func TestLookupAllocsZero(t *testing.T) {
	var led ExecLedger = NewMem(MemOptions{})
	k := testKey(3)
	led.Record(k, Entry{ClientBoot: 1, Seq: 9, Reply: []byte("cached")})
	var sink Entry
	var ok bool
	allocs := testing.AllocsPerRun(1000, func() {
		sink, ok = led.Lookup(k)
	})
	if !ok || sink.Seq != 9 {
		t.Fatalf("lookup broken: %+v %v", sink, ok)
	}
	if allocs != 0 {
		t.Fatalf("Mem.Lookup allocates %.1f per call", allocs)
	}

	f, err := NewFile(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	led = f
	led.Record(k, Entry{ClientBoot: 1, Seq: 9, Reply: []byte("cached")})
	allocs = testing.AllocsPerRun(1000, func() {
		sink, ok = led.Lookup(k)
	})
	if allocs != 0 {
		t.Fatalf("File.Lookup allocates %.1f per call", allocs)
	}
}
