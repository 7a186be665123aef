// Package pmap implements the x-kernel map tool.
//
// Protocols use maps for the two bindings the uniform interface requires
// (§2 of the paper):
//
//   - an active map from a demux key extracted from an incoming message's
//     header (e.g. UDP's ⟨local port, remote port, remote host⟩) to the
//     session that should receive it, and
//   - a passive map from a partially specified key (e.g. just a local
//     port) to the high-level protocol that invoked open_enable, so that
//     demux can complete a passive open with open_done when the first
//     message of a new connection arrives.
//
// Keys are fixed-layout byte strings built with a Key builder so that
// lookups do not allocate in the common case.
//
// The table is sharded by a hash of the key so that concurrent demux
// paths — many shepherd goroutines resolving different sessions at once —
// do not serialize on a single lock. Every operation touches exactly one
// shard except Len and Range, which visit all of them.
//
// Each shard also keeps the x-kernel map tool's one-entry cache of the
// last key resolved: consecutive messages of one conversation carry the
// same key, so Resolve compares it against the cached binding and, on a
// hit, returns without taking the lock or writing anything shared. A miss
// looks the key up under the read lock and caches what it found before
// releasing it; Bind, BindIfAbsent and Unbind clear the cache under the
// write lock, so a Resolve that starts after one of them returned cannot
// be answered with the binding it replaced. Bindings are immutable
// records, which is what lets a hit read one with no lock. The cache's
// worst case is keys of one shard alternating — every Resolve then misses
// and stores; the benchmark's pmap.resolve_ns row rotates 64 keys and is
// that case (reported, not gated), while a stack's demux is the hit.
//
// The map is also the session cache (§5, "always cache open sessions"):
// Open shares a key's session or builds and binds one, Accept is a
// passive open's build-or-use-the-winner, and each binding counts its
// holders under the shard's write lock. A session's Close is Release;
// only the last one unbinds it, and only then does its protocol close
// what is below, so one opener's Close never closes a session another
// holds, and an Open racing the last Close never returns the session it
// closes. Resolve counts nothing.
package pmap

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"xkernel/internal/obs/gauge"
)

// shardCount is the number of independently locked buckets. A power of
// two so the hash can be masked; 16 is comfortably above the goroutine
// parallelism the simulator generates while keeping empty maps cheap.
const shardCount = 16

// Map is a concurrency-safe binding table from binary keys to arbitrary
// values (sessions in active maps, enable records in passive maps).
type Map struct {
	shards [shardCount]shard
	built  func() // SetBuildHook's; nil outside tests
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*binding
	// last is the binding the latest Resolve to take the lock found, or
	// nil: stored under mu (read side), cleared under mu (write side).
	last atomic.Pointer[binding]
}

// binding is one key → value record. key and v are immutable once in a
// shard; opens, its holder count, moves only under the write lock.
type binding struct {
	key   string
	v     any
	opens int
}

func (b *binding) value() (any, bool) {
	if b == nil {
		return nil, false
	}
	return b.v, true
}

// New returns an empty map sized for hint entries.
func New(hint int) *Map {
	m := &Map{}
	per := (hint + shardCount - 1) / shardCount
	for i := range m.shards {
		m.shards[i].m = make(map[string]*binding, per)
	}
	return m
}

// shardFor picks the shard for key with FNV-1a, masked to the shard
// count. Inlineable and allocation-free.
func (m *Map) shardFor(key []byte) *shard {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return &m.shards[h&(shardCount-1)]
}

// Bind associates key with v, replacing any previous binding. It returns
// the previous value, if any.
func (m *Map) Bind(key []byte, v any) (prev any, existed bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.m[string(key)]
	s.put(key, v)
	return old.value()
}

// put binds key to a fresh record with one holder and clears the
// last-key cache. Caller holds s.mu.
func (s *shard) put(key []byte, v any) {
	k := string(key)
	s.m[k] = &binding{k, v, 1}
	s.last.Store(nil)
}

// BindIfAbsent associates key with v only if no binding exists; it returns
// the binding now in force and whether it was newly inserted.
func (m *Map) BindIfAbsent(key []byte, v any) (cur any, inserted bool) {
	cur, found := m.hold(key, v, false)
	return cur, !found
}

// hold returns key's binding, counting one more holder of it if count is
// set; on a miss it binds a non-nil v with a count of one.
func (m *Map) hold(key []byte, v any, count bool) (cur any, found bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[string(key)]; b != nil {
		if count {
			b.opens++
		}
		return b.v, true
	}
	if v != nil {
		s.put(key, v)
	}
	return v, false
}

// Open returns key's value with its caller counted as one more holder.
// On a miss, build runs outside any lock and its value is bound with a
// count of one. If a racer bound key first, the built value goes to
// undo, which releases what build opened below, and the winner is shared
// instead. Each holder gives its count back once, with Release.
func Open[V any](m *Map, key []byte, build func() (V, error), undo func(V)) (V, error) {
	if cur, ok := m.hold(key, nil, true); ok {
		return cur.(V), nil
	}
	v, _, err := bind(m, key, true, build, undo)
	return v, err
}

// Accept is Open for a caller whose lookup already missed and who binds
// the value for a protocol, not for itself: a passive open, whose
// OpenDone announces a fresh value, or a protocol's own table of lower
// sessions. The count of one is that protocol's; a loser is handed the
// winner uncounted.
func Accept[V any](m *Map, key []byte, build func() (V, error), undo func(V)) (v V, fresh bool, err error) {
	return bind(m, key, false, build, undo)
}

func bind[V any](m *Map, key []byte, count bool, build func() (V, error), undo func(V)) (V, bool, error) {
	v, err := build()
	if err != nil {
		return v, false, err
	}
	if m.built != nil {
		m.built()
	}
	cur, found := m.hold(key, v, count)
	if found && undo != nil {
		undo(v)
	}
	return cur.(V), !found, nil
}

// Release gives back one holder's count on v's binding at key, reporting
// whether it was the last: then key is unbound and the caller closes
// what v holds below. A v no longer bound at key counts nothing.
func (m *Map) Release(key []byte, v any) (last bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[string(key)]
	if b == nil || b.v != v {
		return false
	}
	if b.opens--; b.opens > 0 {
		return false
	}
	delete(s.m, string(key))
	s.last.Store(nil)
	return true
}

// SetBuildHook is a test seam: f runs in Open and Accept between build
// and bind, the window a racing opener of the key builds in.
func (m *Map) SetBuildHook(f func()) { m.built = f }

// Resolve looks up key.
func (m *Map) Resolve(key []byte) (v any, ok bool) {
	s := m.shardFor(key)
	if b := s.last.Load(); b != nil && b.key == string(key) {
		return b.v, true
	}
	s.mu.RLock()
	b := s.m[string(key)]
	if b != nil {
		s.last.Store(b)
	}
	s.mu.RUnlock()
	return b.value()
}

// Unbind removes the binding for key, reporting whether one existed.
func (m *Map) Unbind(key []byte) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[string(key)] == nil {
		return false
	}
	delete(s.m, string(key))
	s.last.Store(nil)
	return true
}

// Len reports the number of bindings.
func (m *Map) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// ShardCount reports the number of independently locked buckets.
func (m *Map) ShardCount() int { return shardCount }

// ShardLen reports the number of bindings in shard i — the per-shard
// occupancy XKMON samples to show whether the hash is spreading load or
// a hot shard is serializing demux.
func (m *Map) ShardLen(i int) int {
	s := &m.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// MaxShardLen reports the occupancy of the fullest shard.
func (m *Map) MaxShardLen() int {
	max := 0
	for i := range m.shards {
		if n := m.ShardLen(i); n > max {
			max = n
		}
	}
	return max
}

// RegisterGauges adds the map's occupancy gauges to set under prefix:
// total size, fullest shard, and one series per shard
// ("<prefix>.shard00" ...). A nil set is a no-op.
func (m *Map) RegisterGauges(set *gauge.Set, prefix string) {
	set.Register(prefix+".len", func() int64 { return int64(m.Len()) })
	set.Register(prefix+".max_shard", func() int64 { return int64(m.MaxShardLen()) })
	for i := 0; i < shardCount; i++ {
		i := i
		set.Register(fmt.Sprintf("%s.shard%02d", prefix, i), func() int64 {
			return int64(m.ShardLen(i))
		})
	}
}

// Range calls f for every binding until f returns false. Each shard is
// snapshotted before f sees it, so f may safely mutate the map — even
// the binding it was handed; the iteration observes the bindings as of
// its visit to each shard and no lock is held while f runs.
func (m *Map) Range(f func(key string, v any) bool) {
	var snap []*binding
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		snap = snap[:0]
		if cap(snap) < len(s.m) {
			snap = make([]*binding, 0, len(s.m))
		}
		for _, b := range s.m {
			snap = append(snap, b)
		}
		s.mu.RUnlock()
		for _, b := range snap {
			if !f(b.key, b.v) {
				return
			}
		}
	}
}

// keyInline is the size of a Key's own backing array; every demux key in
// this suite (the longest is eight bytes) fits it with room to spare.
const keyInline = 16

// Key builds fixed-layout binary keys without allocating: a key of up
// to keyInline bytes is assembled in the Key's own array, so a Key
// declared on the stack costs nothing per demux. Longer keys spill to
// the heap. The zero value is ready to use.
type Key struct {
	n    int
	arr  [keyInline]byte
	long []byte // the whole key, once it outgrew arr
}

// Reset clears the key for reuse.
func (k *Key) Reset() *Key {
	k.n, k.long = 0, nil
	return k
}

// U8 appends a byte.
func (k *Key) U8(v uint8) *Key {
	b := [1]byte{v}
	return k.Bytes(b[:])
}

// U16 appends a big-endian 16-bit value.
func (k *Key) U16(v uint16) *Key {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return k.Bytes(b[:])
}

// U32 appends a big-endian 32-bit value.
func (k *Key) U32(v uint32) *Key {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return k.Bytes(b[:])
}

// Bytes appends raw bytes.
func (k *Key) Bytes(b []byte) *Key {
	if k.long == nil && k.n+len(b) <= keyInline {
		k.n += copy(k.arr[k.n:], b)
		return k
	}
	if k.long == nil {
		k.long = append(make([]byte, 0, 2*keyInline+len(b)), k.arr[:k.n]...)
	}
	k.long = append(k.long, b...)
	return k
}

// Built returns the assembled key. The slice is valid until the next
// builder call.
func (k *Key) Built() []byte {
	if k.long != nil {
		return k.long
	}
	return k.arr[:k.n]
}
