package pmap

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBindResolveUnbind(t *testing.T) {
	m := New(4)
	key := []byte("k1")
	if _, ok := m.Resolve(key); ok {
		t.Fatal("resolve on empty map")
	}
	prev, existed := m.Bind(key, "a")
	if existed || prev != nil {
		t.Fatalf("Bind on fresh key: %v %v", prev, existed)
	}
	v, ok := m.Resolve(key)
	if !ok || v.(string) != "a" {
		t.Fatalf("Resolve = %v %v", v, ok)
	}
	prev, existed = m.Bind(key, "b")
	if !existed || prev.(string) != "a" {
		t.Fatalf("rebind: %v %v", prev, existed)
	}
	if !m.Unbind(key) {
		t.Fatal("Unbind reported missing")
	}
	if m.Unbind(key) {
		t.Fatal("double Unbind reported success")
	}
}

func TestBindIfAbsent(t *testing.T) {
	m := New(4)
	key := []byte("k")
	v, inserted := m.BindIfAbsent(key, 1)
	if !inserted || v.(int) != 1 {
		t.Fatalf("first: %v %v", v, inserted)
	}
	v, inserted = m.BindIfAbsent(key, 2)
	if inserted || v.(int) != 1 {
		t.Fatalf("second: %v %v", v, inserted)
	}
}

func TestKeyIsCopiedOnBind(t *testing.T) {
	m := New(4)
	key := []byte("mutable")
	m.Bind(key, "v")
	key[0] = 'X' // caller reuses its buffer, as the Key builder does
	if _, ok := m.Resolve([]byte("mutable")); !ok {
		t.Fatal("binding lost after caller mutated its key buffer")
	}
}

func TestLenAndRange(t *testing.T) {
	m := New(4)
	for i := 0; i < 10; i++ {
		m.Bind([]byte{byte(i)}, i)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := 0
	m.Range(func(string, any) bool { seen++; return true })
	if seen != 10 {
		t.Fatalf("Range visited %d", seen)
	}
	seen = 0
	m.Range(func(string, any) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("Range with early stop visited %d", seen)
	}
}

func TestKeyBuilderLayout(t *testing.T) {
	var k Key
	got := k.Reset().U8(0xAB).U16(0x1234).U32(0xDEADBEEF).Bytes([]byte{9}).Built()
	want := []byte{0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 9}
	if !bytes.Equal(got, want) {
		t.Fatalf("key = %x, want %x", got, want)
	}
	// Reset reuses the buffer.
	got2 := k.Reset().U8(1).Built()
	if !bytes.Equal(got2, []byte{1}) {
		t.Fatalf("after reset: %x", got2)
	}
}

func TestKeyBuilderNoAllocsSteadyState(t *testing.T) {
	var k Key
	k.Reset().U32(1).U32(2) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		k.Reset().U32(7).U32(8)
	})
	if allocs != 0 {
		t.Fatalf("key building allocated %.1f per run", allocs)
	}
}

// A key declared on the stack and built from scratch — what every demux
// does — costs nothing: the bytes land in the Key's own array.
func TestKeyStackDeclaredNoAllocs(t *testing.T) {
	m := New(4)
	remote := []byte{10, 0, 0, 2}
	var seed Key
	m.Bind(seed.Reset().U8(17).Bytes(remote).Built(), "session")
	allocs := testing.AllocsPerRun(100, func() {
		var k Key
		if _, ok := m.Resolve(k.Reset().U8(17).Bytes(remote).Built()); !ok {
			t.Fatal("lost binding")
		}
	})
	if allocs != 0 {
		t.Fatalf("stack-declared key allocated %.1f per run, want 0", allocs)
	}
	// The zero value works without Reset, too.
	allocs = testing.AllocsPerRun(100, func() {
		var k Key
		k.U8(17).Bytes(remote)
	})
	if allocs != 0 {
		t.Fatalf("zero-value key allocated %.1f per run, want 0", allocs)
	}
}

// Keys longer than the inline array still build correctly (they spill
// to the heap), and Reset brings the builder back to its own array.
func TestKeyLongerThanInline(t *testing.T) {
	long := bytes.Repeat([]byte{0xC3}, keyInline+5)
	var k Key
	got := k.Reset().U16(0x0102).Bytes(long).U32(0xA0B0C0D0).Built()
	want := append(append([]byte{1, 2}, long...), 0xA0, 0xB0, 0xC0, 0xD0)
	if !bytes.Equal(got, want) {
		t.Fatalf("long key = %x, want %x", got, want)
	}
	m := New(4)
	m.Bind(got, 1)
	if v, ok := m.Resolve(want); !ok || v.(int) != 1 {
		t.Fatalf("long key did not resolve: %v %v", v, ok)
	}
	if got := k.Reset().U8(9).Built(); !bytes.Equal(got, []byte{9}) || &got[0] != &k.arr[0] {
		t.Fatalf("after reset the key is %x, not rooted in the inline array", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k Key
			for i := 0; i < 200; i++ {
				key := k.Reset().U8(uint8(g)).U16(uint16(i)).Built()
				m.Bind(key, i)
				if _, ok := m.Resolve(key); !ok {
					t.Errorf("lost own binding")
					return
				}
				m.Unbind(key)
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after all unbinds", m.Len())
	}
}

// Property: a sequence of binds on distinct keys is fully retrievable.
func TestQuickBindResolve(t *testing.T) {
	f := func(keys []uint32) bool {
		m := New(len(keys))
		var k Key
		want := make(map[uint32]int)
		for i, key := range keys {
			m.Bind(k.Reset().U32(key).Built(), i)
			want[key] = i
		}
		for key, i := range want {
			v, ok := m.Resolve(k.Reset().U32(key).Built())
			if !ok || v.(int) != i {
				return false
			}
		}
		return m.Len() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkResolve(b *testing.B) {
	m := New(64)
	var k Key
	for i := 0; i < 64; i++ {
		m.Bind(k.Reset().U16(uint16(i)).U32(uint32(i)).Built(), i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := k.Reset().U16(uint16(i % 64)).U32(uint32(i % 64)).Built()
		if _, ok := m.Resolve(key); !ok {
			b.Fatal("miss")
		}
	}
}

func ExampleKey() {
	var k Key
	fmt.Printf("%x\n", k.Reset().U8(17).U16(80).Built())
	// Output: 110050
}
