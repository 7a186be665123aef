package bench

import (
	"bytes"
	"testing"

	"xkernel/internal/event"
	"xkernel/internal/obs/flight"
	"xkernel/internal/obs/gauge"
	"xkernel/internal/obs/span"
	"xkernel/internal/sim"
)

// runTelemetryWorkload drives the same deterministic exchange as
// runWorkload with every telemetry surface switched on at once: meter
// interposition at each boundary, span recording, an enabled flight
// recorder on the wire, and a gauge set sampled between operations.
func runTelemetryWorkload(t *testing.T, stack Stack) (frames []sim.FrameRecord, echoes [][]byte, set *gauge.Set) {
	t.Helper()
	tb, _, err := BuildInstrumented(stack, sim.Config{}, event.NewFake())
	if err != nil {
		t.Fatal(err)
	}

	rec := span.NewRecorder(0)
	rec.Enable()
	tb.SetSpans(rec)

	fr := flight.New(0)
	fr.Enable()
	tb.SetFlight(fr)

	set = gauge.NewSet(0)
	tb.RegisterGauges(set)
	gauge.RegisterRuntime(set)

	tb.Network.SetCapture(func(r sim.FrameRecord) { frames = append(frames, r) })

	tick := int64(0)
	sample := func() {
		set.SampleAll(tick)
		tick += 1_000_000
	}
	sample()
	echoes = driveWorkload(t, tb, sample)
	if tb.Collect != nil {
		tb.Collect()
	}

	// A lossless deterministic wire produces no frame anomalies, so the
	// flight box records nothing even though it is armed.
	if n := fr.Len(); n != 0 {
		t.Errorf("%s: flight recorder captured %d events on a clean wire: %+v",
			stack, n, fr.Events())
	}
	return frames, echoes, set
}

// TestAllTelemetryWireEquivalence is the acceptance check for XKMON's
// zero-interference contract: with the meter, span recorder, flight
// recorder, and gauge sampling all enabled simultaneously, the wire is
// byte-for-byte identical to a bare uninstrumented run and every RPC
// result is unchanged.
func TestAllTelemetryWireEquivalence(t *testing.T) {
	for _, stack := range equivStacks {
		t.Run(string(stack), func(t *testing.T) {
			plainFrames, plainEchoes, _ := runWorkload(t, stack, false)
			telFrames, telEchoes, set := runTelemetryWorkload(t, stack)

			if len(plainFrames) != len(telFrames) {
				t.Fatalf("frame count: plain %d, telemetry %d", len(plainFrames), len(telFrames))
			}
			for i := range plainFrames {
				p, q := plainFrames[i], telFrames[i]
				if !bytes.Equal(p.Frame, q.Frame) {
					t.Fatalf("frame %d differs on the wire:\n plain %x\n telem %x", i, p.Frame, q.Frame)
				}
				if p.Src != q.Src || p.Dst != q.Dst || p.Disposition != q.Disposition {
					t.Fatalf("frame %d metadata differs: %+v vs %+v", i, p, q)
				}
			}
			if len(plainEchoes) != len(telEchoes) {
				t.Fatalf("echo count: plain %d, telemetry %d", len(plainEchoes), len(telEchoes))
			}
			for i := range plainEchoes {
				if !bytes.Equal(plainEchoes[i], telEchoes[i]) {
					t.Fatalf("echo %d reply differs", i)
				}
			}

			// Every testbed registers at least the network gauges, and
			// sampling must have recorded one point per tick per series.
			snaps := set.Snapshot()
			if len(snaps) == 0 {
				t.Fatal("gauge set is empty after RegisterGauges")
			}
			for _, s := range snaps {
				if s.Total == 0 {
					t.Errorf("series %s never sampled", s.Name)
				}
			}
		})
	}
}

// TestStackGaugeCoverage pins down which live-state series each
// gauge-bearing stack contributes beyond the network's.
func TestStackGaugeCoverage(t *testing.T) {
	cases := []struct {
		stack Stack
		want  []string
	}{
		{SelChanFragVIP, []string{
			"client/channel.calls_inflight",
			"client/channel.retrans_inflight",
			"client/select.pool_busy",
			"server/select.pool_free",
			"server/channel.server_chans",
			"client/channel.clients.len",
		}},
		{ChanFragVIP, []string{
			"client/channel.calls_inflight",
			"server/channel.server_chans",
			"client/channel.clients.max_shard",
		}},
		{SelChanVIPsize, []string{
			"client/channel.retrans_inflight",
			"client/select.pool_free",
			"server/select.servers",
		}},
		{VIPOnly, []string{
			"net.deliveries_inflight",
			"net.held_frames",
			"net.nics",
		}},
	}
	for _, c := range cases {
		t.Run(string(c.stack), func(t *testing.T) {
			tb, err := Build(c.stack, sim.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			set := gauge.NewSet(8)
			tb.RegisterGauges(set)
			names := make(map[string]bool)
			for _, n := range set.Names() {
				names[n] = true
			}
			for _, w := range c.want {
				if !names[w] {
					t.Errorf("missing series %q (have %v)", w, set.Names())
				}
			}
		})
	}
}
