package fragment_test

import (
	"sync"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/xk"
)

// N first-contact frames from one peer, demuxed at once, each held
// between building its passive session and binding it until all N have
// built one: every demux has missed the lookup, so all N race to bind.
// One session is bound, the upper protocol hears one OpenDone, and every
// frame is delivered through that session; the losers leave nothing
// armed. Binding with Bind instead of BindIfAbsent fails this every
// time: each racer binds over the last and opens its own session, and
// two sessions numbering from 1 can stitch one reply out of two calls.
func TestFirstContactBindsOneSession(t *testing.T) {
	const n = 4
	clock := event.NewFake()
	p, err := fragment.New("fc/fragment", &sinkProto{}, fuzzLocal, fragment.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	from := map[xk.Session]int{}
	app := xk.NewApp("fc/app", func(s xk.Session, m *msg.Msg) error {
		mu.Lock()
		from[s]++
		mu.Unlock()
		return nil
	})
	if err := p.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(fuzzProto))); err != nil {
		t.Fatal(err)
	}
	var built sync.WaitGroup
	built.Add(n)
	p.SetBuildHook(func() {
		built.Done()
		built.Wait()
	})

	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := frFrame(tData, fuzzPeer, fuzzLocal, uint32(fuzzProto), uint32(i+1), 1, 1, 1, []byte{byte(i)})
			if err := p.Demux(&sinkSession{}, msg.New(frame)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	opened := app.Sessions()
	if len(opened) != 1 {
		t.Fatalf("%d OpenDone calls for one peer, want 1", len(opened))
	}
	if len(from) != 1 || from[opened[0]] != n {
		t.Fatalf("deliveries by session %v, want all %d through the one opened", from, n)
	}
	if got := clock.PendingCount(); got != 0 {
		t.Fatalf("%d events pending after single-fragment deliveries", got)
	}
}
