package msg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	m := New([]byte("hello"))
	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	if got := m.Bytes(); string(got) != "hello" {
		t.Fatalf("Bytes = %q", got)
	}
}

func TestEmpty(t *testing.T) {
	m := Empty()
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
	if got := m.Bytes(); len(got) != 0 {
		t.Fatalf("Bytes = %v, want empty", got)
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	m := New([]byte("payload"))
	if err := m.Push([]byte("hdr2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Push([]byte("h1")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 7+4+2 {
		t.Fatalf("Len = %d", m.Len())
	}
	b, err := m.Pop(2)
	if err != nil || string(b) != "h1" {
		t.Fatalf("Pop = %q, %v", b, err)
	}
	b, err = m.Pop(4)
	if err != nil || string(b) != "hdr2" {
		t.Fatalf("Pop = %q, %v", b, err)
	}
	if string(m.Bytes()) != "payload" {
		t.Fatalf("rest = %q", m.Bytes())
	}
}

func TestPushNoAllocationInLeader(t *testing.T) {
	m := NewWithLeader([]byte("x"), 64)
	hdr := []byte("0123456789")
	allocs := testing.AllocsPerRun(100, func() {
		m2 := *m // shallow copy shares the leader array; fine for this probe
		_ = m2.Push(hdr)
	})
	if allocs != 0 {
		t.Fatalf("Push allocated %.1f times per run, want 0", allocs)
	}
}

func TestLeaderFull(t *testing.T) {
	m := NewWithLeader(nil, 4)
	if err := m.Push([]byte("12345")); err != ErrLeaderFull {
		t.Fatalf("got %v, want ErrLeaderFull", err)
	}
	if err := m.Push([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	if err := m.Push([]byte("x")); err != ErrLeaderFull {
		t.Fatalf("got %v, want ErrLeaderFull", err)
	}
}

func TestMustPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPush on full leader should panic")
		}
	}()
	m := NewWithLeader(nil, 0)
	m.MustPush([]byte("x"))
}

func TestPopAcrossHeaderPayloadBoundary(t *testing.T) {
	m := New([]byte("payload"))
	m.MustPush([]byte("hd"))
	b, err := m.Pop(5) // "hd" + "pay"
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hdpay" {
		t.Fatalf("Pop = %q", b)
	}
	if string(m.Bytes()) != "load" {
		t.Fatalf("rest = %q", m.Bytes())
	}
}

func TestPopAcrossBlocks(t *testing.T) {
	m := New([]byte("abc"))
	m.Append([]byte("def"))
	m.Append([]byte("ghi"))
	b, err := m.Pop(7)
	if err != nil || string(b) != "abcdefg" {
		t.Fatalf("Pop = %q, %v", b, err)
	}
	if string(m.Bytes()) != "hi" {
		t.Fatalf("rest = %q", m.Bytes())
	}
}

func TestPopTooMuch(t *testing.T) {
	m := New([]byte("ab"))
	if _, err := m.Pop(3); err != ErrShortMessage {
		t.Fatalf("got %v, want ErrShortMessage", err)
	}
	// The failed pop must not consume anything.
	if m.Len() != 2 {
		t.Fatalf("Len = %d after failed pop", m.Len())
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	m := New([]byte("abcdef"))
	m.MustPush([]byte("H"))
	b, err := m.Peek(4)
	if err != nil || string(b) != "Habc" {
		t.Fatalf("Peek = %q, %v", b, err)
	}
	if m.Len() != 7 {
		t.Fatalf("Peek consumed: Len = %d", m.Len())
	}
	if string(m.Bytes()) != "Habcdef" {
		t.Fatalf("Bytes = %q", m.Bytes())
	}
}

func TestTruncate(t *testing.T) {
	m := New([]byte("abc"))
	m.Append([]byte("defgh"))
	if err := m.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != "abcd" {
		t.Fatalf("Bytes = %q", m.Bytes())
	}
	if err := m.Truncate(10); err != ErrShortMessage {
		t.Fatalf("got %v, want ErrShortMessage", err)
	}
}

func TestTruncateIntoHeader(t *testing.T) {
	m := Empty()
	m.MustPush([]byte("abcdef"))
	if err := m.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != "abc" {
		t.Fatalf("Bytes = %q", m.Bytes())
	}
}

func TestFragmentSharesPayload(t *testing.T) {
	data := MakeData(100)
	m := New(data)
	f, err := m.Fragment(10, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), data[10:30]) {
		t.Fatal("fragment content mismatch")
	}
	// The original is untouched.
	if !bytes.Equal(m.Bytes(), data) {
		t.Fatal("fragmenting mutated the original")
	}
}

func TestFragmentIncludesHeaderBytes(t *testing.T) {
	m := New([]byte("payload"))
	m.MustPush([]byte("HD"))
	f, err := m.Fragment(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Bytes()) != "Dpay" {
		t.Fatalf("fragment = %q", f.Bytes())
	}
}

// Header bytes a cut covers go into the fragment's own leader when they
// fit there with lowerHeadroom to spare — one allocation, the fragment —
// and into a copied block otherwise; either way the fragment's bytes are
// the same.
func TestFragmentPutsHeaderBytesInItsLeader(t *testing.T) {
	for _, c := range []struct {
		name           string
		hdrLen, leader int
		off, n         int
		inLeader       bool
	}{
		{"upper headers, default leader", 30, DefaultLeader, 0, 500, true},
		{"the cut starts inside them", 30, DefaultLeader, 7, 500, true},
		{"the cut ends inside them", 30, DefaultLeader, 3, 20, true},
		{"exactly lowerHeadroom left", DefaultLeader - lowerHeadroom, DefaultLeader, 0, 500, true},
		{"one byte too many", DefaultLeader - lowerHeadroom + 1, DefaultLeader, 0, 500, false},
		{"a small leader", 4, 16, 0, 100, false},
		{"no leader", 4, 0, 0, 100, false},
	} {
		m := NewWithLeader(MakeData(1000), DefaultLeader)
		m.MustPush(bytes.Repeat([]byte{0xA5}, c.hdrLen))
		var f *Msg
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if f, err = m.Fragment(c.off, c.n, c.leader); err != nil {
				t.Fatal(err)
			}
		})
		if want := m.Bytes()[c.off : c.off+c.n]; !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("%s: fragment bytes differ from the message's", c.name)
		}
		take := min(c.hdrLen-c.off, c.n)
		wantAllocs, wantRoom := 2.0, c.leader
		if c.inLeader {
			wantAllocs, wantRoom = 1, c.leader-take
		}
		if allocs != wantAllocs || f.Headroom() != wantRoom {
			t.Errorf("%s: %.0f allocations, headroom %d; want %.0f and %d", c.name, allocs, f.Headroom(), wantAllocs, wantRoom)
		}
	}
}

func TestFragmentBadRange(t *testing.T) {
	m := New([]byte("abc"))
	if _, err := m.Fragment(2, 5, 0); err != ErrBadRange {
		t.Fatalf("got %v, want ErrBadRange", err)
	}
	if _, err := m.Fragment(-1, 1, 0); err != ErrBadRange {
		t.Fatalf("got %v, want ErrBadRange", err)
	}
}

func TestSplitJoinIdentity(t *testing.T) {
	data := MakeData(10000)
	m := New(data)
	frags, err := m.Split(1477, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 7 {
		t.Fatalf("got %d fragments, want 7", len(frags))
	}
	joined := Empty()
	for _, f := range frags {
		joined.Join(f)
	}
	if !bytes.Equal(joined.Bytes(), data) {
		t.Fatal("split+join is not the identity")
	}
}

// JoinAll is successive Joins with one chain growth: a 12-fragment
// message reassembled onto its first fragment costs the out-of-line chain
// (the spill record and its exact-size slice) and nothing else, where an
// Empty plus twelve Joins costs the message and three growths on top.
func TestJoinAllIsJoinWithOneGrowth(t *testing.T) {
	data := MakeData(16 * 1024)
	split := func() []*Msg {
		frags, err := New(data).Split(1477, DefaultLeader)
		if err != nil {
			t.Fatal(err)
		}
		return frags
	}
	frags := split()
	whole := frags[0]
	whole.JoinAll(frags[1:])
	if whole.Len() != len(data) || !bytes.Equal(whole.Bytes(), data) {
		t.Fatal("JoinAll onto the first fragment is not the identity")
	}
	if n, c := len(whole.chain()), cap(whole.chain()); n != len(frags) || c != n {
		t.Fatalf("chain has %d blocks in room for %d, want exactly %d", n, c, len(frags))
	}

	const runs = 50
	sets := make([][]*Msg, runs+1) // AllocsPerRun warms up with one extra call
	for i := range sets {
		sets[i] = split()
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		sets[i][0].JoinAll(sets[i][1:])
		i++
	}); got != 2 {
		t.Errorf("JoinAll of 12 fragments: %.1f allocations, want 2", got)
	}

	// Header bytes of the joined messages are carried as Join carries
	// them, and joining nothing changes nothing.
	a, b := New([]byte("ab")), New([]byte("ef"))
	b.MustPush([]byte("cd"))
	a.JoinAll([]*Msg{b})
	if got := string(a.Bytes()); got != "abcdef" {
		t.Fatalf("JoinAll with header bytes = %q", got)
	}
	a.JoinAll(nil)
	if got := string(a.Bytes()); got != "abcdef" {
		t.Fatalf("JoinAll(nil) changed the message: %q", got)
	}
}

func TestSplitEmptyMessage(t *testing.T) {
	frags, err := Empty().Split(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].Len() != 0 {
		t.Fatalf("empty split = %d frags", len(frags))
	}
}

func TestSplitBadSize(t *testing.T) {
	if _, err := New([]byte("x")).Split(0, 0); err != ErrBadRange {
		t.Fatalf("got %v, want ErrBadRange", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New([]byte("data"))
	m.MustPush([]byte("A"))
	c := m.Clone()
	c.MustPush([]byte("B"))
	if string(m.Bytes()) != "Adata" {
		t.Fatalf("original changed: %q", m.Bytes())
	}
	if string(c.Bytes()) != "BAdata" {
		t.Fatalf("clone = %q", c.Bytes())
	}
	// Pops are independent too.
	if _, err := c.Pop(3); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 {
		t.Fatal("pop on clone affected original")
	}
}

func TestAttrs(t *testing.T) {
	const k AttrKey = 42
	m := New(nil)
	if _, ok := m.Attr(k); ok {
		t.Fatal("unset attr present")
	}
	m.SetAttr(k, "v")
	v, ok := m.Attr(k)
	if !ok || v.(string) != "v" {
		t.Fatalf("attr = %v, %v", v, ok)
	}
	c := m.Clone()
	cv, ok := c.Attr(k)
	if !ok || cv.(string) != "v" {
		t.Fatal("clone lost attrs")
	}
}

func TestJoinCopiesHeaderBytes(t *testing.T) {
	a := New([]byte("A"))
	b := New([]byte("B"))
	b.MustPush([]byte("H"))
	a.Join(b)
	if string(a.Bytes()) != "AHB" {
		t.Fatalf("join = %q", a.Bytes())
	}
}

// Property: for any payload and any split size, Split followed by Join
// reproduces the original bytes, and every fragment respects the size
// bound.
func TestQuickSplitJoin(t *testing.T) {
	f := func(data []byte, sizeSeed uint8) bool {
		size := int(sizeSeed)%997 + 1
		m := New(append([]byte(nil), data...))
		frags, err := m.Split(size, 4)
		if err != nil {
			return false
		}
		joined := Empty()
		for _, fr := range frags {
			if fr.Len() > size {
				return false
			}
			joined.Join(fr)
		}
		return bytes.Equal(joined.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pushing then popping any sequence of headers returns them in
// reverse order with the payload intact, and Len is consistent
// throughout.
func TestQuickPushPop(t *testing.T) {
	f := func(payload []byte, hdrs [][]byte) bool {
		total := 0
		for _, h := range hdrs {
			total += len(h)
		}
		m := NewWithLeader(append([]byte(nil), payload...), total)
		for _, h := range hdrs {
			if err := m.Push(h); err != nil {
				return false
			}
			// defensive: Push copies, so mutating h afterwards must
			// not corrupt the message. Simulate by zeroing.
			for i := range h {
				h[i] = 0
			}
		}
		if m.Len() != len(payload)+total {
			return false
		}
		for i := len(hdrs) - 1; i >= 0; i-- {
			b, err := m.Pop(len(hdrs[i]))
			if err != nil || len(b) != len(hdrs[i]) {
				return false
			}
		}
		return bytes.Equal(m.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fragment(off, n) equals Bytes()[off:off+n] for all valid
// ranges.
func TestQuickFragment(t *testing.T) {
	f := func(data []byte, offSeed, nSeed uint16) bool {
		m := New(append([]byte(nil), data...))
		if len(data) == 0 {
			return true
		}
		off := int(offSeed) % len(data)
		n := int(nSeed) % (len(data) - off + 1)
		fr, err := m.Fragment(off, n, 0)
		if err != nil {
			return false
		}
		return bytes.Equal(fr.Bytes(), data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len always equals len(Bytes()).
func TestQuickLenInvariant(t *testing.T) {
	f := func(payload, hdr, extra []byte, popSeed uint8) bool {
		m := New(append([]byte(nil), payload...))
		m.MustPush(append([]byte(nil), hdr...))
		m.Append(append([]byte(nil), extra...))
		if m.Len() != len(m.Bytes()) {
			return false
		}
		n := int(popSeed) % (m.Len() + 1)
		if _, err := m.Pop(n); err != nil {
			return false
		}
		return m.Len() == len(m.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPopHeader(b *testing.B) {
	m := NewWithLeader(MakeData(1024), 64)
	hdr := MakeData(36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MustPush(hdr)
		if _, err := m.Pop(36); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplit16K(b *testing.B) {
	m := New(MakeData(16 * 1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Split(1477, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One-object layout ----

// sink keeps allocation probes from being optimized away.
var sink *Msg

func TestAllocationBudget(t *testing.T) {
	payload := MakeData(64)
	base := New(payload)
	base.MustPush([]byte("hdr!"))
	hdr := []byte("0123456789abcdef")
	extra := MakeData(32)
	one := func(name string, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, f); got != 1 {
			t.Errorf("%s: %.1f allocations, want exactly 1", name, got)
		}
	}
	one("New", func() { sink = New(payload) })
	one("Empty", func() { sink = Empty() })
	one("NewWithLeader(small)", func() { sink = NewWithLeader(payload, 40) })
	one("Clone", func() { sink = base.Clone() })
	one("Fragment", func() { sink, _ = base.Fragment(8, 40, DefaultLeader) })

	// Everything a protocol does to a message it was handed: none.
	m := New(payload)
	zero := testing.AllocsPerRun(200, func() {
		m.MustPush(hdr)
		if _, err := m.Pop(len(hdr)); err != nil {
			t.Fatal(err)
		}
		m.Append(extra) // second block: still inline
		m.SetAttr(1, uint8(7))
		m.SetAttr(2, uint8(9)) // second key: still inline
		if _, ok := m.Attr(2); !ok {
			t.Fatal("attr lost")
		}
		if err := m.Truncate(len(payload)); err != nil { // drops the second block again
			t.Fatal(err)
		}
	})
	if zero != 0 {
		t.Errorf("Push/Pop/Append/SetAttr/Attr/Truncate within the inline bounds: %.1f allocations, want 0", zero)
	}

	// Join of a two-block message into an empty one stays inline too.
	two := New(payload)
	two.Append(extra)
	if got := testing.AllocsPerRun(200, func() {
		sink = Empty()
		sink.Join(two)
	}); got != 1 {
		t.Errorf("Empty+Join of two blocks: %.1f allocations, want 1 (the message)", got)
	}
}

// A leader larger than the inline array still works, from a heap leader.
func TestLeaderLargerThanInline(t *testing.T) {
	const big = DefaultLeader + 108
	m := NewWithLeader([]byte("payload"), big)
	if m.Headroom() != big {
		t.Fatalf("Headroom = %d, want %d", m.Headroom(), big)
	}
	hdr := bytes.Repeat([]byte{0xAB}, big)
	if err := m.Push(hdr); err != nil {
		t.Fatalf("Push of %d bytes into a %d-byte leader: %v", len(hdr), big, err)
	}
	if err := m.Push([]byte{1}); err != ErrLeaderFull {
		t.Fatalf("Push past a full big leader: %v, want ErrLeaderFull", err)
	}
	c := m.Clone()
	got, err := c.Pop(big)
	if err != nil || !bytes.Equal(got, hdr) {
		t.Fatalf("clone's Pop(%d) = %d bytes, %v", big, len(got), err)
	}
	if m.Len() != big+7 || string(c.Bytes()) != "payload" {
		t.Fatalf("original Len=%d clone=%q", m.Len(), c.Bytes())
	}
	// The clone's leader is its own.
	c.MustPush([]byte("XY"))
	if b, _ := m.Peek(2); b[0] != 0xAB || b[1] != 0xAB {
		t.Fatalf("push on the clone wrote into the original's leader: %x", b)
	}
	// A fragment may ask for a big leader as well.
	f, err := m.Fragment(big, 7, big)
	if err != nil || string(f.Bytes()) != "payload" || f.Headroom() != big {
		t.Fatalf("Fragment with a big leader: %v %q headroom %d", err, f.Bytes(), f.Headroom())
	}
}

// Blocks and attributes beyond the inline two spill and keep working.
func TestSpillBeyondInline(t *testing.T) {
	m := Empty()
	var want []byte
	for i := 0; i < 7; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, i+1)
		m.Append(chunk)
		want = append(want, chunk...)
	}
	for k := AttrKey(1); k <= 5; k++ {
		m.SetAttr(k, int(k)*10)
	}
	m.SetAttr(2, "replaced")
	c := m.Clone()
	for _, x := range []*Msg{m, c} {
		if !bytes.Equal(x.Bytes(), want) {
			t.Fatalf("bytes = %q, want %q", x.Bytes(), want)
		}
		for k := AttrKey(1); k <= 5; k++ {
			v, ok := x.Attr(k)
			if !ok || (k != 2 && v.(int) != int(k)*10) || (k == 2 && v.(string) != "replaced") {
				t.Fatalf("attr %d = %v, %v", k, v, ok)
			}
		}
	}
	// Drain the spilled chain from the front, then grow it again.
	if _, err := m.Pop(len(want)); err != nil {
		t.Fatal(err)
	}
	m.Append([]byte("again"))
	if string(m.Bytes()) != "again" || !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("after drain: m=%q clone=%q", m.Bytes(), c.Bytes())
	}
	// A clone's spilled attributes are its own.
	c.SetAttr(5, "clone only")
	if v, _ := m.Attr(5); v.(int) != 50 {
		t.Fatalf("SetAttr on the clone changed the original: %v", v)
	}
}

// With the leader, blocks and attributes stored inside the Msg, a clone
// must own its copy of all three: mutate original and clone in turn and
// check neither ever sees the other.
func TestCloneIndependenceInline(t *testing.T) {
	m := New([]byte("0123456789"))
	m.Append([]byte("abcdefghij"))
	m.MustPush([]byte("HH"))
	m.SetAttr(1, "m")
	c := m.Clone()
	mWant, cWant := []byte("HH0123456789abcdefghij"), []byte("HH0123456789abcdefghij")
	check := func(step string) {
		t.Helper()
		if !bytes.Equal(m.Bytes(), mWant) || m.Len() != len(mWant) {
			t.Fatalf("%s: original = %q (len %d), want %q", step, m.Bytes(), m.Len(), mWant)
		}
		if !bytes.Equal(c.Bytes(), cWant) || c.Len() != len(cWant) {
			t.Fatalf("%s: clone = %q (len %d), want %q", step, c.Bytes(), c.Len(), cWant)
		}
	}
	check("clone")

	if _, err := m.Pop(5); err != nil { // through the header into block 0
		t.Fatal(err)
	}
	mWant = mWant[5:]
	check("Pop on original")

	c.MustPush([]byte("cc"))
	cWant = append([]byte("cc"), cWant...)
	check("Push on clone")

	if err := c.Truncate(16); err != nil { // drops into block 1
		t.Fatal(err)
	}
	cWant = cWant[:16]
	check("Truncate on clone")

	m.Append([]byte("MM")) // third block: the original spills, the clone must not
	mWant = append(mWant, "MM"...)
	check("Append on original")

	c.Append([]byte("C"))
	cWant = append(cWant, 'C')
	check("Append on clone")

	if _, err := c.Pop(14); err != nil { // empties block 0, slides the inline chain
		t.Fatal(err)
	}
	cWant = cWant[14:]
	check("Pop on clone")

	m.MustPush([]byte("mmmm")) // lands where the clone's popped header bytes were
	mWant = append([]byte("mmmm"), mWant...)
	check("Push on original")

	m.SetAttr(1, "m2")
	c.SetAttr(2, "c")
	if v, _ := c.Attr(1); v.(string) != "m" {
		t.Fatalf("clone's attr 1 = %v after SetAttr on the original", v)
	}
	if _, ok := m.Attr(2); ok {
		t.Fatal("original sees the clone's attr 2")
	}
	check("SetAttr")
}

// CopyInto is Clone into storage the caller has: independent leader and
// attributes, shared payload, and no allocation unless the message spilled.
func TestCopyIntoIsCloneWithoutTheObject(t *testing.T) {
	m := New([]byte("payload"))
	m.MustPush([]byte("hdr"))
	m.SetAttr(1, "a")
	var held Msg
	if n := testing.AllocsPerRun(100, func() { m.CopyInto(&held) }); n != 0 {
		t.Fatalf("CopyInto of an unspilled message: %.0f allocations", n)
	}
	m.MustPush([]byte("more"))
	m.SetAttr(1, "b")
	if got := string(held.Bytes()); got != "hdrpayload" {
		t.Fatalf("held copy changed with its original: %q", got)
	}
	if v, _ := held.Attr(1); v != "a" {
		t.Fatalf("held attribute = %v", v)
	}
	if got := string(held.Clone().Bytes()); got != "hdrpayload" {
		t.Fatalf("clone of the held copy: %q", got)
	}

	// Spilled leader, chain and attributes are copied deep, as Clone does.
	big := NewWithLeader([]byte("a"), DefaultLeader+8)
	for _, s := range []string{"b", "c", "d"} {
		big.Append([]byte(s))
	}
	for k := AttrKey(1); k <= 3; k++ {
		big.SetAttr(k, int(k))
	}
	big.CopyInto(&held)
	big.MustPush([]byte("X"))
	big.Append([]byte("e"))
	big.SetAttr(3, "changed")
	if got := string(held.Bytes()); got != "abcd" {
		t.Fatalf("held copy of a spilled message: %q", got)
	}
	if v, _ := held.Attr(3); v != 3 {
		t.Fatalf("held spilled attribute = %v", v)
	}
}

func TestClearAttrs(t *testing.T) {
	m := New([]byte("x"))
	for k := AttrKey(1); k <= 4; k++ { // two inline, two spilled
		m.SetAttr(k, int(k))
	}
	m.ClearAttrs()
	for k := AttrKey(1); k <= 4; k++ {
		if _, ok := m.Attr(k); ok {
			t.Fatalf("attribute %d survived ClearAttrs", k)
		}
	}
	m.SetAttr(2, "again")
	if v, ok := m.Attr(2); !ok || v != "again" || string(m.Bytes()) != "x" {
		t.Fatalf("after ClearAttrs: attr %v %v, bytes %q", v, ok, m.Bytes())
	}
}

// spilled builds a message of blocks payload blocks of 100 bytes each,
// with a header pushed: past inlineBlocks, its chain is out of line, as a
// reassembled message's is.
func spilled(blocks int) *Msg {
	m := New(MakeData(100))
	for i := 1; i < blocks; i++ {
		m.Append(MakeData(100))
	}
	m.MustPush([]byte("header"))
	return m
}

// A held message is the source's bytes, and stays so whatever happens to
// the source afterwards: consuming it (popping across blocks rewrites the
// chain entries in place), pushing onto it, and holding another message
// into the same storage do not reach the held copy's chain, and the
// source's attributes are not held.
func TestHoldIntoNeverAliasesTheSource(t *testing.T) {
	var held Msg
	for _, blocks := range []int{1, 3, 12, 5} { // storage shrinks and grows
		src := spilled(blocks)
		src.SetAttr(1, "host-local")
		want := src.Bytes()
		src.HoldInto(&held)
		src.MustPush([]byte("lower"))
		for src.Len() > 0 {
			if _, err := src.Pop(min(7, src.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(held.Bytes(), want) {
			t.Fatalf("%d blocks: the held copy changed with its consumed source", blocks)
		}
		if _, ok := held.Attr(1); ok {
			t.Fatalf("%d blocks: the held copy kept the source's attribute", blocks)
		}
		c := held.Clone()
		c.MustPush([]byte("replay"))
		if _, err := c.Pop(c.Len() - 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(held.Bytes(), want) {
			t.Fatalf("%d blocks: consuming a clone of the held copy changed it", blocks)
		}
	}
}
