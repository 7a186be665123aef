package eth

import (
	"sync"
	"testing"

	"xkernel/internal/msg"
	"xkernel/internal/pmap"
	"xkernel/internal/xk"
)

// N first-contact frames from one host, each held between building its
// passive session and binding it until all N have built one: one
// session is bound, one OpenDone is heard, and every frame goes up
// through that session.
func TestFirstContactBindsOneSession(t *testing.T) {
	const n = 4
	const typ = Type(0x0888)
	w := newFakeWire()
	p := New("eth", w)
	var mu sync.Mutex
	from := map[xk.Session]int{}
	app := xk.NewApp("app", func(s xk.Session, m *msg.Msg) error {
		mu.Lock()
		from[s]++
		mu.Unlock()
		return nil
	})
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(typ))); err != nil {
		t.Fatal(err)
	}
	var built sync.WaitGroup
	built.Add(n)
	p.active.SetBuildHook(func() {
		built.Done()
		built.Wait()
	})

	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.inject(peer, uint16(typ), []byte{byte(i)})
		}()
	}
	wg.Wait()

	opened := app.Sessions()
	if len(opened) != 1 {
		t.Fatalf("%d OpenDone calls for one host, want 1", len(opened))
	}
	var kb pmap.Key
	bound, ok := p.active.Resolve(key(&kb, typ, peer))
	if !ok || bound.(xk.Session) != opened[0] {
		t.Fatalf("bound session %v is not the one opened", bound)
	}
	if len(from) != 1 || from[opened[0]] != n {
		t.Fatalf("deliveries by session %v, want all %d through the one opened", from, n)
	}
}
