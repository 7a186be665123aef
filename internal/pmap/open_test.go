package pmap

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// sess stands in for a session: the number of lower holds its build took
// and gave back, and whether its last release closed it.
type sess struct {
	lower  *atomic.Int32
	closed atomic.Bool
}

func builder(lower *atomic.Int32, builds *atomic.Int32) func() (*sess, error) {
	return func() (*sess, error) {
		builds.Add(1)
		lower.Add(1)
		return &sess{lower: lower}, nil
	}
}

func (s *sess) undo() { s.lower.Add(-1) }

// opens reads the holder count of key's binding, or 0 when unbound.
func (m *Map) opens(key []byte) int {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[string(key)]; b != nil {
		return b.opens
	}
	return 0
}

// Two opens of one key share one build; one holder's release leaves it
// bound, the last unbinds it, and the next open builds afresh.
func TestOpenSharesAndLastReleaseUnbinds(t *testing.T) {
	m := New(4)
	key := []byte("k")
	var lower, builds atomic.Int32
	a, err := Open(m, key, builder(&lower, &builds), (*sess).undo)
	if err != nil || m.opens(key) != 1 {
		t.Fatalf("first open: opens=%d err=%v", m.opens(key), err)
	}
	b, _ := Open(m, key, builder(&lower, &builds), (*sess).undo)
	if b != a || builds.Load() != 1 || m.opens(key) != 2 {
		t.Fatalf("second open: same=%v builds=%d opens=%d", b == a, builds.Load(), m.opens(key))
	}
	if m.Release(key, a) {
		t.Fatal("first release of two reported last")
	}
	if v, ok := m.Resolve(key); !ok || v != a {
		t.Fatal("binding gone while a holder remains")
	}
	if !m.Release(key, a) {
		t.Fatal("last release not reported")
	}
	if _, ok := m.Resolve(key); ok || m.opens(key) != 0 {
		t.Fatal("key still bound after the last release")
	}
	if m.Release(key, a) {
		t.Fatal("release of an unbound value reported last")
	}
	c, _ := Open(m, key, builder(&lower, &builds), (*sess).undo)
	if builds.Load() != 2 || c == a {
		t.Fatal("open after the last release reused the released value")
	}
	// A stale holder of a replaced value counts nothing.
	if m.Release(key, a) || m.opens(key) != 1 {
		t.Fatalf("stale release moved the count to %d", m.opens(key))
	}
}

// A failed build binds nothing and calls no undo.
func TestOpenBuildErrorBindsNothing(t *testing.T) {
	m := New(4)
	boom := errors.New("boom")
	_, err := Open(m, []byte("k"), func() (*sess, error) { return nil, boom },
		func(*sess) { t.Fatal("undo of a failed build") })
	if !errors.Is(err, boom) || m.Len() != 0 {
		t.Fatalf("err=%v len=%d", err, m.Len())
	}
}

// N opens that all miss build N values; one is bound with a count of N,
// and each loser's build is undone. Accept's losers get the winner
// without a count.
func TestOpenRaceOneWinner(t *testing.T) {
	const n = 4
	for _, accept := range []bool{false, true} {
		m := New(4)
		key := []byte("k")
		var lower, builds atomic.Int32
		var gate sync.WaitGroup
		gate.Add(n)
		m.SetBuildHook(func() { gate.Done(); gate.Wait() })
		got := make([]*sess, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if accept {
					got[i], _, _ = Accept(m, key, builder(&lower, &builds), (*sess).undo)
				} else {
					got[i], _ = Open(m, key, builder(&lower, &builds), (*sess).undo)
				}
			}()
		}
		wg.Wait()
		want := n
		if accept {
			want = 1
		}
		for _, s := range got {
			if s != got[0] {
				t.Fatalf("accept=%v: racers got different values", accept)
			}
		}
		if builds.Load() != n || lower.Load() != 1 || m.opens(key) != want {
			t.Fatalf("accept=%v: builds=%d lower holds=%d opens=%d, want %d/1/%d",
				accept, builds.Load(), lower.Load(), m.opens(key), n, want)
		}
	}
}

// Opens racing the last release of one key: no open ever returns a value
// its last release already closed, no value is closed while a holder
// holds it, each is closed exactly once, and the count ends at zero with
// the key unbound.
func TestOpenAgainstLastRelease(t *testing.T) {
	const workers, rounds = 4, 500
	m := New(4)
	key := []byte("k")
	var lower, builds, closes atomic.Int32
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				s, _ := Open(m, key, builder(&lower, &builds), (*sess).undo)
				if s.closed.Load() {
					t.Error("open returned a closed value")
					return
				}
				runtime.Gosched() // let other holders come and go
				if s.closed.Load() {
					t.Error("value closed while held")
					return
				}
				if m.Release(key, s) {
					if s.closed.Swap(true) {
						t.Error("value closed twice")
						return
					}
					closes.Add(1)
					s.undo()
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() != 0 || m.opens(key) != 0 {
		t.Fatalf("%d bindings, count %d after every holder released", m.Len(), m.opens(key))
	}
	if lower.Load() != 0 || closes.Load() == 0 {
		t.Fatalf("lower holds %d, closes %d (of %d builds)", lower.Load(), closes.Load(), builds.Load())
	}
}
