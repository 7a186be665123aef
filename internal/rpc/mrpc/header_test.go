package mrpc

import (
	"testing"
	"testing/quick"

	"xkernel/internal/xk"
)

// Property: the SPRITE_HDR codec is the identity on its field domain.
func TestQuickHeaderCodec(t *testing.T) {
	f := func(flags uint16, ch, cs uint32, channel, srvrProc uint16, seq uint32,
		numFrags, fragMask, command uint16, bootID uint32, d1, d2, o1, o2 uint16) bool {
		h := header{
			flags: flags, clntHost: xk.IPFromU32(ch), srvrHost: xk.IPFromU32(cs),
			channel: channel, srvrProc: srvrProc, seq: seq,
			numFrags: numFrags, fragMask: fragMask, command: command,
			bootID: bootID, data1Sz: d1, data2Sz: d2, data1Off: o1, data2Off: o2,
		}
		var b [HeaderLen]byte
		h.encode(b[:])
		return decodeHeader(b[:]) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorAssemblesInOrder(t *testing.T) {
	var c collector
	c.start(7, 3)
	if c.complete() {
		t.Fatal("fresh collector complete")
	}
	add := func(i int, b byte) bool { return c.add(1<<i, mkMsg(b)) }
	if add(2, 'c') || add(0, 'a') {
		t.Fatal("complete too early")
	}
	if !add(1, 'b') {
		t.Fatal("not complete after all fragments")
	}
	if got := string(c.assemble().Bytes()); got != "abc" {
		t.Fatalf("assembled %q", got)
	}
}

func TestCollectorIgnoresDuplicatesAndJunk(t *testing.T) {
	var c collector
	c.start(1, 2)
	c.add(1<<0, mkMsg('x'))
	c.add(1<<0, mkMsg('y')) // duplicate: ignored
	c.add(0, mkMsg('z'))    // zero mask: ignored
	c.add(1<<5, mkMsg('w')) // out of range: ignored
	if c.complete() {
		t.Fatal("junk completed the collector")
	}
	if !c.add(1<<1, mkMsg('b')) {
		t.Fatal("valid second fragment did not complete")
	}
	if got := string(c.assemble().Bytes()); got != "xb" {
		t.Fatalf("assembled %q", got)
	}
}
