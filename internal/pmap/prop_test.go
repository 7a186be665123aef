package pmap

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapVsModel drives a long random op sequence against a plain map
// reference model and checks every return value, plus Len and the full
// Range contents at intervals. Single-goroutine, so the model is exact.
func TestMapVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10ad))
	m := New(4)
	ref := map[string]int{}
	var kb Key
	for i := 0; i < 20000; i++ {
		// Half the ops reuse the previous key, so the sequences the last-key
		// cache must survive (Resolve, rebind or unbind, Resolve again) occur
		// all the time instead of once in 256.
		if i == 0 || rng.Intn(2) == 0 {
			kb.Reset().U8(uint8(rng.Intn(4))).U16(uint16(rng.Intn(64)))
		}
		key := kb.Built()
		switch rng.Intn(6) {
		case 0:
			v := rng.Int()
			prev, existed := m.Bind(key, v)
			refPrev, refExisted := ref[string(key)]
			if existed != refExisted || (existed && prev.(int) != refPrev) {
				t.Fatalf("op %d: Bind(%x) = %v,%v; model %v,%v", i, key, prev, existed, refPrev, refExisted)
			}
			ref[string(key)] = v
		case 1:
			v := rng.Int()
			cur, inserted := m.BindIfAbsent(key, v)
			if refPrev, ok := ref[string(key)]; ok {
				if inserted || cur.(int) != refPrev {
					t.Fatalf("op %d: BindIfAbsent(%x) = %v,%v; model had %v", i, key, cur, inserted, refPrev)
				}
			} else {
				if !inserted || cur.(int) != v {
					t.Fatalf("op %d: BindIfAbsent(%x) = %v,%v; model had nothing", i, key, cur, inserted)
				}
				ref[string(key)] = v
			}
		case 2:
			v, ok := m.Resolve(key)
			refV, refOK := ref[string(key)]
			if ok != refOK || (ok && v.(int) != refV) {
				t.Fatalf("op %d: Resolve(%x) = %v,%v; model %v,%v", i, key, v, ok, refV, refOK)
			}
		case 3:
			_, refOK := ref[string(key)]
			if got := m.Unbind(key); got != refOK {
				t.Fatalf("op %d: Unbind(%x) = %v; model %v", i, key, got, refOK)
			}
			delete(ref, string(key))
		case 4:
			if got := m.Len(); got != len(ref) {
				t.Fatalf("op %d: Len = %d; model %d", i, got, len(ref))
			}
		case 5:
			seen := map[string]int{}
			m.Range(func(k string, v any) bool {
				seen[k] = v.(int)
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("op %d: Range saw %d bindings; model %d", i, len(seen), len(ref))
			}
			for k, v := range ref {
				if seen[k] != v {
					t.Fatalf("op %d: Range saw %x=%d; model %d", i, k, seen[k], v)
				}
			}
		}
	}
}

// TestConcurrentMapVsModel runs the same random ops from many goroutines
// at once, each owning a disjoint slice of the key space so its private
// reference model stays exact while the goroutines still collide on
// shards. Run under -race this doubles as the data-race check for the
// sharded implementation; each goroutine's Range must observe exactly
// its own live bindings regardless of the others' concurrent churn.
func TestConcurrentMapVsModel(t *testing.T) {
	const goroutines = 8
	const opsPer = 4000
	m := New(8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(0xfa1e + g)))
			ref := map[string]int{}
			var kb Key
			for i := 0; i < opsPer; i++ {
				key := kb.Reset().U8(uint8(g)).U8(uint8(rng.Intn(48))).Built()
				switch rng.Intn(6) {
				case 0:
					v := rng.Int()
					prev, existed := m.Bind(key, v)
					refPrev, refExisted := ref[string(key)]
					if existed != refExisted || (existed && prev.(int) != refPrev) {
						t.Errorf("g%d op %d: Bind = %v,%v; model %v,%v", g, i, prev, existed, refPrev, refExisted)
						return
					}
					ref[string(key)] = v
				case 1:
					v := rng.Int()
					cur, inserted := m.BindIfAbsent(key, v)
					if refPrev, ok := ref[string(key)]; ok {
						if inserted || cur.(int) != refPrev {
							t.Errorf("g%d op %d: BindIfAbsent = %v,%v; model had %v", g, i, cur, inserted, refPrev)
							return
						}
					} else {
						if !inserted {
							t.Errorf("g%d op %d: BindIfAbsent did not insert into empty slot", g, i)
							return
						}
						ref[string(key)] = v
					}
				case 2:
					v, ok := m.Resolve(key)
					refV, refOK := ref[string(key)]
					if ok != refOK || (ok && v.(int) != refV) {
						t.Errorf("g%d op %d: Resolve = %v,%v; model %v,%v", g, i, v, ok, refV, refOK)
						return
					}
				case 3:
					_, refOK := ref[string(key)]
					if got := m.Unbind(key); got != refOK {
						t.Errorf("g%d op %d: Unbind = %v; model %v", g, i, got, refOK)
						return
					}
					delete(ref, string(key))
				case 4:
					// Len over the whole map is racy by nature; just
					// bound it by this goroutine's own contribution.
					if got := m.Len(); got < len(ref) {
						t.Errorf("g%d op %d: Len = %d < own %d bindings", g, i, got, len(ref))
						return
					}
				case 5:
					own := 0
					m.Range(func(k string, v any) bool {
						if len(k) == 2 && k[0] == byte(g) {
							own++
							if refV, ok := ref[string(k)]; !ok || v.(int) != refV {
								t.Errorf("g%d op %d: Range saw stale own binding %x", g, i, k)
							}
						}
						return true
					})
					if own != len(ref) {
						t.Errorf("g%d op %d: Range saw %d own bindings; model %d", g, i, own, len(ref))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// sameShardKeys returns two distinct keys that m hashes to one shard.
func sameShardKeys(m *Map) (k1, k2 []byte) {
	k1 = new(Key).U8(1).Built()
	for i := 0; ; i++ {
		if k2 = new(Key).U8(2).U16(uint16(i)).Built(); m.shardFor(k2) == m.shardFor(k1) {
			return k1, k2
		}
	}
}

// TestLastKeyCacheSequences scripts the orders in which a stale cached
// binding would show: every write to a key whose binding a Resolve has
// just cached, and two keys of one shard evicting each other.
func TestLastKeyCacheSequences(t *testing.T) {
	m := New(4)
	k, k2 := sameShardKeys(m)
	want := func(step string, key []byte, wantV any, wantOK bool) {
		t.Helper()
		for i := 0; i < 2; i++ { // the first may miss and fill; the second hits
			if v, ok := m.Resolve(key); v != wantV || ok != wantOK {
				t.Fatalf("%s: Resolve(%x) #%d = %v,%v; want %v,%v", step, key, i, v, ok, wantV, wantOK)
			}
		}
	}
	m.Bind(k, "a")
	want("bind", k, "a", true)
	if prev, existed := m.Bind(k, "b"); prev != "a" || !existed {
		t.Fatalf("rebind returned %v,%v", prev, existed)
	}
	want("rebind after a cached hit", k, "b", true)
	m.Unbind(k)
	want("unbind after a cached hit", k, nil, false)
	if cur, inserted := m.BindIfAbsent(k, "c"); cur != "c" || !inserted {
		t.Fatalf("BindIfAbsent into the emptied slot = %v,%v", cur, inserted)
	}
	want("bind-if-absent", k, "c", true)
	if cur, inserted := m.BindIfAbsent(k, "d"); cur != "c" || inserted {
		t.Fatalf("BindIfAbsent after a cached hit = %v,%v", cur, inserted)
	}
	want("refused bind-if-absent", k, "c", true)
	m.Bind(k2, "z")
	for i := 0; i < 4; i++ {
		want("alternating", k, "c", true)
		want("alternating", k2, "z", true)
	}
	m.Unbind(k2) // k2 is the cached key; k's binding must survive the clear
	want("neighbour unbound", k2, nil, false)
	want("neighbour unbound", k, "c", true)
}

// TestResolveAfterUnbindNeverStale: a Resolve that starts after Unbind
// returned must not be answered from the cache with the binding Unbind
// removed. The writer binds generation g, lets the readers cache it,
// unbinds it and only then announces g as gone; a reader that loads the
// announcement before it resolves must see a later generation or nothing.
func TestResolveAfterUnbindNeverStale(t *testing.T) {
	m := New(4)
	key := new(Key).U8(7).Built()
	var gone atomic.Int64 // every generation ≤ gone has been unbound
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := gone.Load()
				if v, ok := m.Resolve(key); ok && int64(v.(int)) <= g {
					t.Errorf("Resolve returned generation %d after its Unbind returned (gone=%d)", v, g)
					return
				}
				runtime.Gosched() // spinning readers on every processor would starve the writer
			}
		}()
	}
	for g := 1; g <= 5000; g++ {
		m.Bind(key, g)
		m.Resolve(key) // make sure the binding about to go is the cached one
		m.Unbind(key)
		gone.Store(int64(g))
	}
	stop.Store(true)
	wg.Wait()
}

// TestResolveAllocatesNothing: neither the cache hit nor its worst case —
// two keys of one shard alternating, every Resolve a miss that refills the
// cache — allocates.
func TestResolveAllocatesNothing(t *testing.T) {
	m := New(4)
	k, k2 := sameShardKeys(m)
	m.Bind(k, 1)
	m.Bind(k2, 2)
	if n := testing.AllocsPerRun(200, func() { m.Resolve(k) }); n != 0 {
		t.Errorf("cache hit allocates %v per Resolve", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Resolve(k); m.Resolve(k2) }); n != 0 {
		t.Errorf("thrashing miss allocates %v per pair of Resolves", n)
	}
}

// TestRangeMutateWithin is the regression test for the old
// "must not be mutated from within f" footgun: with the single RWMutex
// a Bind or Unbind inside the callback self-deadlocked. The snapshot
// iteration makes it legal; rebinding every visited key and inserting
// new ones mid-iteration must terminate and leave the map consistent.
func TestRangeMutateWithin(t *testing.T) {
	m := New(4)
	var kb Key
	for i := 0; i < 64; i++ {
		m.Bind(kb.Reset().U16(uint16(i)).Built(), i)
	}
	visited := 0
	m.Range(func(k string, v any) bool {
		visited++
		// Mutations that used to deadlock: delete self, rebind self,
		// insert a fresh key in (probably) another shard.
		m.Unbind([]byte(k))
		m.Bind([]byte(k), v.(int)+1000)
		m.BindIfAbsent(kb.Reset().U16(uint16(v.(int))).U8(0xff).Built(), v)
		return true
	})
	if visited < 64 {
		t.Fatalf("Range visited %d of 64 original bindings", visited)
	}
	// All 64 originals rebound with +1000; up to 64 fresh keys added.
	for i := 0; i < 64; i++ {
		v, ok := m.Resolve(kb.Reset().U16(uint16(i)).Built())
		if !ok || v.(int) != i+1000 {
			t.Fatalf("key %d: got %v,%v; want %d", i, v, ok, i+1000)
		}
	}
	if got := m.Len(); got < 64+64 {
		t.Fatalf("Len = %d after inserting 64 fresh keys; want ≥ 128", got)
	}
	// Early termination still honored.
	calls := 0
	m.Range(func(string, any) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range after false: %d calls", calls)
	}
}

// FuzzKey asserts the Key builder's encode is injective for a fixed
// field schema: two distinct value tuples must never build the same key,
// and equal tuples must build byte-identical keys (the demux maps depend
// on both directions). The fuzz input supplies the schema and both
// tuples.
func FuzzKey(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 9, 9, 9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8, 8})
	f.Add([]byte{1, 3, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{2, 2, 2, 0, 0, 0, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		nf := int(data[0]%8) + 1
		if len(data) < 1+nf {
			t.Skip()
		}
		tags := data[1 : 1+nf]
		width := 0
		for _, tag := range tags {
			switch tag % 4 {
			case 0:
				width++
			case 1:
				width += 2
			case 2:
				width += 4
			default:
				width += int(tag>>2) % 5 // Bytes field, length fixed by schema
			}
		}
		rest := data[1+nf:]
		if len(rest) < 2*width {
			t.Skip()
		}
		valsA, valsB := rest[:width], rest[width:2*width]
		build := func(vals []byte) []byte {
			var k Key
			k.Reset()
			off := 0
			for _, tag := range tags {
				switch tag % 4 {
				case 0:
					k.U8(vals[off])
					off++
				case 1:
					k.U16(uint16(vals[off])<<8 | uint16(vals[off+1]))
					off += 2
				case 2:
					k.U32(uint32(vals[off])<<24 | uint32(vals[off+1])<<16 | uint32(vals[off+2])<<8 | uint32(vals[off+3]))
					off += 4
				default:
					n := int(tag>>2) % 5
					k.Bytes(vals[off : off+n])
					off += n
				}
			}
			return append([]byte(nil), k.Built()...)
		}
		keyA, keyB := build(valsA), build(valsB)
		if len(keyA) != width || len(keyB) != width {
			t.Fatalf("key width %d/%d; schema says %d", len(keyA), len(keyB), width)
		}
		if bytes.Equal(valsA, valsB) {
			if !bytes.Equal(keyA, keyB) {
				t.Fatalf("equal tuples built different keys: %x vs %x", keyA, keyB)
			}
		} else if bytes.Equal(keyA, keyB) {
			t.Fatalf("distinct tuples %x / %x collided on key %x", valsA, valsB, keyA)
		}
		if again := build(valsA); !bytes.Equal(keyA, again) {
			t.Fatalf("rebuild differs: %x vs %x", keyA, again)
		}
	})
}
