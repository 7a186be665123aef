package fragment_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"xkernel/internal/msg"
	"xkernel/internal/proto/vip"
	"xkernel/internal/rpc/fragment"
	"xkernel/internal/sim"
	"xkernel/internal/stacks"
	"xkernel/internal/xk"
)

// buildAsync assembles FRAGMENT over VIP on the real clock with async
// delivery, so gap timers, resend requests, and fresh fragments all run
// concurrently under the race detector.
func buildAsync(t *testing.T, netCfg sim.Config, cfg fragment.Config) *bed {
	t.Helper()
	netCfg.Async = true
	client, server, inj := twoHosts(t, netCfg, nil)
	client.ARP.AddEntry(xk.IP(10, 0, 0, 2), xk.EthAddr{0x02, 0, 0, 0, 0, 2})
	server.ARP.AddEntry(xk.IP(10, 0, 0, 1), xk.EthAddr{0x02, 0, 0, 0, 0, 1})
	mk := func(h *stacks.Host) *fragment.Protocol {
		v, err := vip.New(h.Name+"/vip", h.Eth, h.IP, h.ARP)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fragment.New(h.Name+"/fragment", v, hostIP(h), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return &bed{
		client: client, server: server, network: sim.Unwrap(inj), inj: inj,
		cf: mk(client), sf: mk(server),
	}
}

// lockedSink is sink's async-safe twin: deliveries arrive on network
// goroutines, so the collection needs a lock.
func lockedSink(t *testing.T, f *fragment.Protocol) func() [][]byte {
	t.Helper()
	var mu sync.Mutex
	var out [][]byte
	app := xk.NewApp("sink", func(s xk.Session, m *msg.Msg) error {
		mu.Lock()
		out = append(out, m.Bytes())
		mu.Unlock()
		return nil
	})
	if err := f.OpenEnable(app, xk.LocalOnly(xk.NewParticipant(hlpProto))); err != nil {
		t.Fatal(err)
	}
	return func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), out...)
	}
}

// TestAsyncDupReorderWithDrops pushes a stream of multi-fragment
// messages through an async network that duplicates, reorders, and —
// via deterministic rules — eats a handful of client fragments
// outright. Duplicates and reordering alone cannot lose data, so every
// message must reassemble intact; the dropped fragments can only be
// recovered through the gap-chase resend path, which the stats must
// show was exercised.
func TestAsyncDupReorderWithDrops(t *testing.T) {
	b := buildAsync(t, sim.Config{
		Seed:        21,
		Latency:     50 * time.Microsecond,
		DupRate:     0.2,
		ReorderRate: 0.25,
	}, fragment.Config{
		GapTimeout: 2 * time.Millisecond,
		GapRetries: 50,
	})
	clientMAC := xk.EthAddr{0x02, 0, 0, 0, 0, 1}
	// Each rule eats one client frame once `after` frames have been
	// offered to it; match runs under the injector's lock, so counting
	// its calls is safe.
	for _, after := range []int{4, 11, 23} {
		after, offered := after, 0
		b.inj.DropWhere(func(src, _ xk.EthAddr) bool {
			offered++
			return offered > after && src == clientMAC
		}, 1)
	}

	collected := lockedSink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))

	const messages = 20
	payloads := make([][]byte, messages)
	for i := range payloads {
		p := msg.MakeData(3000)
		binary.BigEndian.PutUint32(p, uint32(i))
		payloads[i] = p
		if err := s.Push(msg.New(p)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}

	// FRAGMENT offers persistence, not exactly-once: a duplicated
	// fragment arriving after its message completed can rebuild the
	// whole message through the resend path, so the sink may see more
	// than `messages` deliveries. Demand every message at least once,
	// every copy bit-identical; suppression is CHANNEL's job upstairs.
	deadline := time.Now().Add(10 * time.Second)
	seen := make([]int, messages)
	for {
		got := collected()
		for i := range seen {
			seen[i] = 0
		}
		for _, g := range got {
			idx := int(binary.BigEndian.Uint32(g))
			if idx >= messages || !bytes.Equal(g, payloads[idx]) {
				t.Fatalf("delivery corrupted in reassembly (stamp %d)", idx)
			}
			seen[idx]++
		}
		complete := true
		for _, c := range seen {
			if c == 0 {
				complete = false
				break
			}
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("incomplete after deadline: per-message deliveries %v", seen)
		}
		time.Sleep(time.Millisecond)
	}
	st := b.sf.Stats()
	if st.ResendRequestsSent == 0 {
		t.Error("dropped fragments were recovered without a resend request")
	}
	if st.DuplicateFragments == 0 {
		t.Error("a twenty-percent-dup run delivered no duplicate fragments")
	}
	if honored := b.cf.Stats().ResendsHonored; honored == 0 {
		t.Error("client honored no resend requests")
	}
}

// TestAsyncOneAndMultiFragmentInterleaved sends one-fragment and
// multi-fragment messages on one session from several goroutines at once
// over a fault-free async network, so the lock-free one-fragment receive
// runs beside collections starting and completing under the session lock.
// Nothing is lost or duplicated on such a network: every message arrives
// exactly once, intact.
func TestAsyncOneAndMultiFragmentInterleaved(t *testing.T) {
	b := buildAsync(t, sim.Config{}, fragment.Config{})
	collected := lockedSink(t, b.sf)
	s := openSession(t, b.cf, xk.IP(10, 0, 0, 2))

	const senders, perSender = 4, 50
	sizes := []int{0, 64, 3000, 1400, 9000}
	payloads := make([][]byte, senders*perSender)
	for i := range payloads {
		p := msg.MakeData(4 + sizes[i%len(sizes)])
		binary.BigEndian.PutUint32(p, uint32(i))
		payloads[i] = p
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(payloads); i += senders {
				if err := s.Push(msg.New(payloads[i])); err != nil {
					t.Errorf("push %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for len(collected()) < len(payloads) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages delivered", len(collected()), len(payloads))
		}
		time.Sleep(time.Millisecond)
	}
	seen := make([]int, len(payloads))
	for _, g := range collected() {
		idx := int(binary.BigEndian.Uint32(g))
		if idx >= len(payloads) || !bytes.Equal(g, payloads[idx]) {
			t.Fatalf("delivery corrupted (stamp %d, %d bytes)", idx, len(g))
		}
		seen[idx]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("message %d delivered %d times", i, c)
		}
	}
	if st := b.sf.Stats(); st.MessagesDelivered != int64(len(payloads)) || st.DuplicateFragments != 0 {
		t.Errorf("server stats %+v, want %d deliveries and no duplicates", st, len(payloads))
	}
}
