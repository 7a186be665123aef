//go:build !race

package msg

import (
	"runtime"
	"testing"
	"unsafe"
)

// The race detector instruments allocation, so the exact counts below are
// read without it; scripts/check.sh runs this file in its allocation
// budgets stage.

// A Msg is 312 bytes: one object of the allocator's 320-byte class, and
// the size Cutter's slab rule is derived from (slabs of one, two and four
// fill the 320-, 640- and 1280-byte classes exactly). Item 11's consumed
// mark (ROADMAP) is a field under the race build tag only: it must be of
// zero size in every other build, so this stays 312.
func TestMsgIs312Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != 312 {
		t.Fatalf("unsafe.Sizeof(Msg{}) = %d, want 312: Cutter's slabs no longer fill their size classes", got)
	}
}

// heapPerRun reports the objects and bytes f allocates per run, read from
// runtime.MemStats over runs runs on one processor, as testing.AllocsPerRun
// reads objects.
func heapPerRun(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// cutSink keeps the cut fragments reachable, so the cuts are not
// optimized away.
var cutSink [16]*Msg

// Cutting n fragments through a Cutter makes a slab of four per four
// fragments left, then one of two, then one of one — and exactly the bytes
// n separate Fragments make, n × 320. A slab of three (1024 B for 960) or
// of twelve (4096 B for 3840) would fail the byte count.
func TestCutterIsByteNeutral(t *testing.T) {
	const runs = 1000
	src := New(MakeData(16 * 64))
	src.MustPush([]byte("hdr!"))

	objs, bytes := heapPerRun(runs, func() { cutSink[0], _ = src.Fragment(0, 64, DefaultLeader) })
	if objs != 1 || bytes != 320 {
		t.Fatalf("Fragment: %d objects, %d bytes; want 1 and 320", objs, bytes)
	}

	for n := 1; n <= 16; n++ {
		slabs := n/4 + n%4/2 + n%2
		objs, bytes := heapPerRun(runs, func() {
			var c Cutter
			c.Reset(n)
			for i := 0; i < n; i++ {
				cutSink[i], _ = c.Fragment(src, i*64, 64, DefaultLeader)
			}
		})
		if objs != uint64(slabs) || bytes != uint64(n)*320 {
			t.Errorf("cutting %d fragments: %d objects, %d bytes; want %d slabs and %d bytes", n, objs, bytes, slabs, n*320)
		}
	}
}

// holdSink is the storage a ledger holds replies in, reused hold after
// hold.
var holdSink Msg

// Holding a message into storage that held one of its shape before costs
// nothing, spilled chain and all: the ledger's per-channel copy of each
// reply is no allocation per call. CopyInto, by contrast, allocates a
// spill record and a chain slice for every spilled message.
func TestHoldIntoIsAllocationFree(t *testing.T) {
	for _, blocks := range []int{1, inlineBlocks, 3, 12} {
		src := spilled(blocks)
		if objs, _ := heapPerRun(1000, func() { src.HoldInto(&holdSink) }); objs != 0 {
			t.Errorf("holding a %d-block message: %d objects per hold, want 0", blocks, objs)
		}
	}
	if objs, _ := heapPerRun(1000, func() { spilled(3).CopyInto(&holdSink) }); objs <= 1 {
		t.Fatalf("CopyInto of a spilled message: %d objects, the comparison above is void", objs)
	}
}
