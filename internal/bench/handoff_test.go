package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/msg"
	"xkernel/internal/sim"
	"xkernel/internal/wire"
	"xkernel/internal/xk"
)

// A frame crosses the simulator as the message, so under an async
// network the client's pushed message is, a moment later, the server's,
// on another goroutine. "Push consumes" is what makes that safe; these
// tests are where the race detector holds the stacks to it, with the
// retransmitting layers working from their held copies while the
// originals are being popped on the other host.

// lossyWire drops and duplicates unicast frames on the message pair by
// the message tool's own rules — a duplicate is a Clone — so the segment
// beneath stays on its fast path and every surviving frame is handed
// over, not flattened. (The simulator's own loss and duplication work on
// bytes.)
type lossyWire struct {
	wire.Wire
	loss, dup float64

	mu                  sync.Mutex
	rng                 *rand.Rand
	dropped, duplicated int
}

func (w *lossyWire) Attach(addr xk.EthAddr) (wire.Link, error) {
	l, err := w.Wire.Attach(addr)
	if err != nil {
		return nil, err
	}
	return &lossyLink{Link: l, w: w}, nil
}

type lossyLink struct {
	wire.Link
	w *lossyWire
}

func (l *lossyLink) SendMsg(dst xk.EthAddr, m *msg.Msg) error {
	w := l.w
	w.mu.Lock()
	drop := !dst.IsBroadcast() && w.rng.Float64() < w.loss
	dup := !drop && !dst.IsBroadcast() && w.rng.Float64() < w.dup
	if drop {
		w.dropped++
	}
	if dup {
		w.duplicated++
	}
	w.mu.Unlock()
	if drop {
		return nil
	}
	if dup {
		if err := l.Link.SendMsg(dst, m.Clone()); err != nil {
			return err
		}
	}
	return l.Link.SendMsg(dst, m)
}

// quickClock is the real clock with every delay divided, so the stacks'
// default 50 ms retransmission timers make a test of milliseconds.
type quickClock struct{ div time.Duration }

func (c quickClock) Now() time.Time { return time.Now() }
func (c quickClock) Schedule(d time.Duration, f func()) *event.Event {
	return event.Real().Schedule(d/c.div, f)
}

// TestHandoffUnderLossAndDup runs concurrent echo clients — 4 KB, so
// both directions fragment, and 64 bytes, the one-packet path the
// by-value hold serves in both stacks — over an async segment that loses
// and duplicates frames. Every call must complete with its own bytes
// (a request executed from a retransmission is, byte for byte, the one
// the caller made), the server must run each exactly once, and
// retransmissions must have happened for any of that to mean something.
func TestHandoffUnderLossAndDup(t *testing.T) {
	for _, stack := range []Stack{LRPCVIP, MRPCVIP} {
		t.Run(string(stack), func(t *testing.T) {
			lw := &lossyWire{
				Wire: sim.New(sim.Config{Async: true}).AsWire(),
				loss: 0.04, dup: 0.04,
				rng: rand.New(rand.NewSource(0x4a11)),
			}
			tb, err := BuildOn(stack, func() (wire.Wire, error) { return lw, nil }, quickClock{div: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()

			const clients, perClient = 4, 40
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				ep, err := tb.NewEndpoint(c)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(c int, ep Endpoint) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						size := 4096
						if i%2 == 1 {
							size = 64
						}
						// A fresh payload per call: the message adopts it, and a
						// late duplicate may still be in flight when Echo returns.
						payload := make([]byte, size)
						for k := range payload {
							payload[k] = byte(k*31 + c*17 + i)
						}
						reply, err := ep.Echo(payload)
						if err == nil && !bytes.Equal(reply, payload) {
							err = fmt.Errorf("reply differs (%d bytes for %d)", len(reply), size)
						}
						if err != nil {
							errs[c] = fmt.Errorf("client %d call %d (%d bytes): %w", c, i, size, err)
							return
						}
					}
				}(c, ep)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if got := tb.ServerExecs(); got != clients*perClient {
				t.Errorf("server executed %d requests for %d calls", got, clients*perClient)
			}
			lw.mu.Lock()
			dropped, duplicated := lw.dropped, lw.duplicated
			lw.mu.Unlock()
			if dropped == 0 || duplicated == 0 || tb.Retransmits() == 0 {
				t.Errorf("%d frames dropped, %d duplicated, %d retransmissions: the run proved nothing",
					dropped, duplicated, tb.Retransmits())
			}
		})
	}
}
