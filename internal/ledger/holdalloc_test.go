//go:build !race

package ledger

import "testing"

// Recording reply after reply on one channel reuses the storage the
// channel's node held the last one in: no allocation, spilled frame and
// all. A Lookup that lends the frames out costs the next Record fresh
// storage, once. The race detector instruments allocation, so this reads
// the counts without it.
func TestMemHoldIsAllocationFree(t *testing.T) {
	m := NewMem(MemOptions{})
	k := testKey(1)
	frames, _ := reply('a')
	record := func() { m.Record(k, Entry{ClientBoot: 1, Seq: 1, Frames: frames}) }
	if got := testing.AllocsPerRun(100, record); got != 0 {
		t.Fatalf("%v allocations per Record of a held shape, want 0", got)
	}
	lendThenRecord := func() {
		m.Lookup(k)
		record()
	}
	if got := testing.AllocsPerRun(100, lendThenRecord); got == 0 {
		t.Fatal("a Record after a Lookup reused the frames the Lookup lent out")
	}
}
