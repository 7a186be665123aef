package bench

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"xkernel/internal/event"
	"xkernel/internal/obs/anatomy"
	"xkernel/internal/obs/span"
	"xkernel/internal/sim"
)

// spanWorkload drives the deterministic exchange from runWorkload with
// a span recorder attached (enabled or not) and returns the wire
// frames, echo replies, and the recorder.
func spanWorkload(t *testing.T, stack Stack, cfg sim.Config, clock event.Clock, enable bool) (frames []sim.FrameRecord, echoes [][]byte, rec *span.Recorder) {
	t.Helper()
	tb, _, err := BuildInstrumented(stack, cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	rec = span.NewRecorder(0)
	tb.SetSpans(rec)
	if enable {
		rec.Enable()
	}
	// Retransmission timers can deliver (and capture) after the workload
	// returns, so the frame log needs its own lock — and the returned
	// slice must be a snapshot, not the slice the callback keeps writing.
	var mu sync.Mutex
	var captured []sim.FrameRecord
	tb.Network.SetCapture(func(r sim.FrameRecord) {
		mu.Lock()
		captured = append(captured, r)
		mu.Unlock()
	})

	echoes = driveWorkload(t, tb, nil)
	// Release anything the reorder hold still owns so its wire spans
	// close, then stop capturing before the recorder is read.
	tb.Network.Flush()
	rec.Disable()
	mu.Lock()
	frames = append([]sim.FrameRecord(nil), captured...)
	mu.Unlock()
	return frames, echoes, rec
}

// TestSpanWireTransparency extends the interposition-equivalence
// satellite to span capture: with the recorder enabled at every
// boundary, the wire must stay byte-for-byte identical to the
// uninstrumented graph — spans ride message attributes and never touch
// the encoded bytes.
func TestSpanWireTransparency(t *testing.T) {
	for _, stack := range equivStacks {
		t.Run(string(stack), func(t *testing.T) {
			plainFrames, plainEchoes, _ := runWorkload(t, stack, false)
			spanFrames, spanEchoes, rec := spanWorkload(t, stack, sim.Config{}, event.NewFake(), true)

			if rec.Len() == 0 {
				t.Fatal("recorder enabled but captured nothing")
			}
			if len(plainFrames) != len(spanFrames) {
				t.Fatalf("frame count: plain %d, spans %d", len(plainFrames), len(spanFrames))
			}
			for i := range plainFrames {
				p, q := plainFrames[i], spanFrames[i]
				if !bytes.Equal(p.Frame, q.Frame) {
					t.Fatalf("frame %d differs on the wire:\n plain %x\n spans %x", i, p.Frame, q.Frame)
				}
				if p.Src != q.Src || p.Dst != q.Dst || p.Disposition != q.Disposition {
					t.Fatalf("frame %d metadata differs: %+v vs %+v", i, p, q)
				}
			}
			if len(plainEchoes) != len(spanEchoes) {
				t.Fatalf("echo count: plain %d, spans %d", len(plainEchoes), len(spanEchoes))
			}
			for i := range plainEchoes {
				if !bytes.Equal(plainEchoes[i], spanEchoes[i]) {
					t.Fatalf("echo %d reply differs", i)
				}
			}
		})
	}
}

// TestSpanDisabledCapturesNothing: an attached but disabled recorder
// must stay empty through a full workload — the guard really is
// checked before any capture.
func TestSpanDisabledCapturesNothing(t *testing.T) {
	_, _, rec := spanWorkload(t, SelChanFragVIP, sim.Config{}, event.NewFake(), false)
	if rec.Len() != 0 || rec.Dropped() != 0 {
		t.Fatalf("disabled recorder holds %d spans, %d dropped", rec.Len(), rec.Dropped())
	}
}

// checkSpanIntegrity asserts the structural invariants every capture
// must satisfy regardless of faults or concurrency: every opened span
// was closed, every recorded parent id refers to an earlier span, and
// intervals are well-formed.
func checkSpanIntegrity(t *testing.T, spans []span.Span) {
	t.Helper()
	for _, s := range spans {
		if !s.Done {
			t.Errorf("span %d (%s/%s) never closed", s.ID, s.Layer, s.Dir)
		}
		if s.Parent != 0 && s.Parent >= s.ID {
			t.Errorf("span %d has parent %d, not an earlier span", s.ID, s.Parent)
		}
		if s.Done && s.EndNs < s.StartNs {
			t.Errorf("span %d ends %d before it starts %d", s.ID, s.EndNs, s.StartNs)
		}
	}
}

// TestSpanIntegritySync: on the deterministic synchronous network,
// every configuration's capture must reconstruct into clean trees that
// satisfy the compositional invariant — Σ layer costs = end-to-end
// within epsilon, every child contained, no sibling overlap.
func TestSpanIntegritySync(t *testing.T) {
	for _, stack := range equivStacks {
		t.Run(string(stack), func(t *testing.T) {
			_, _, rec := spanWorkload(t, stack, sim.Config{}, event.NewFake(), true)
			spans := rec.Spans()
			checkSpanIntegrity(t, spans)
			a := anatomy.Analyze(spans)
			if a.Open != 0 {
				t.Errorf("%d open spans in analysis", a.Open)
			}
			if len(a.Roots) == 0 {
				t.Fatal("no trees reconstructed")
			}
			for _, v := range a.CheckComposition(anatomy.DefaultEpsilon) {
				t.Errorf("composition: %s", v)
			}
		})
	}
}

// TestSpanIntegrityUnderFaults: loss, duplication, and reordering
// force retransmissions from held message copies and queueing in the
// reorder hold — the paths where stale span contexts and unclosed wire
// spans would hide. The structural invariants must survive; tree
// composition is not asserted because retransmission timers introduce
// real concurrency.
func TestSpanIntegrityUnderFaults(t *testing.T) {
	cfg := sim.Config{LossRate: 0.05, DupRate: 0.02, ReorderRate: 0.05, Seed: 3}
	for _, stack := range []Stack{ChanFragVIP, MRPCVIP, NRPC} {
		t.Run(string(stack), func(t *testing.T) {
			_, _, rec := spanWorkload(t, stack, cfg, nil, true)
			// Let in-flight timer-driven sends settle before reading.
			time.Sleep(30 * time.Millisecond)
			checkSpanIntegrity(t, rec.Spans())
			if rec.Len() == 0 {
				t.Fatal("no spans under faults")
			}
		})
	}
}

// TestSpanIntegrityAsync runs capture with every delivery on its own
// shepherd goroutine — the configuration the race detector leans on.
func TestSpanIntegrityAsync(t *testing.T) {
	_, _, rec := spanWorkload(t, MRPCVIP, sim.Config{Async: true}, nil, true)
	time.Sleep(30 * time.Millisecond)
	checkSpanIntegrity(t, rec.Spans())
	if rec.Len() == 0 {
		t.Fatal("no spans in async mode")
	}
}

// TestSpanRecorderOnTestbed: SetSpans on an uninstrumented testbed
// still wires the simulated wire, and wire spans carry the transit
// attribution.
func TestSpanRecorderOnTestbed(t *testing.T) {
	tb, err := Build(MRPCVIP, sim.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder(0)
	tb.SetSpans(rec)
	rec.Enable()
	if err := tb.End.RoundTrip(nil); err != nil {
		t.Fatal(err)
	}
	rec.Disable()
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no wire spans on bare testbed")
	}
	for _, s := range spans {
		if s.Dir != span.DirWire {
			t.Errorf("unexpected non-wire span %s/%s on bare testbed", s.Layer, s.Dir)
		}
		if s.WireSerNs <= 0 {
			t.Errorf("wire span %d missing serialization attribution: %+v", s.ID, s)
		}
		if !s.Done {
			t.Errorf("wire span %d not closed", s.ID)
		}
	}
}
