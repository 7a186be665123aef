package trace

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// reset restores the package defaults after a test.
func reset() {
	SetLevel(Off)
	SetOutput(nil)
}

func TestOffEmitsNothing(t *testing.T) {
	defer reset()
	var buf bytes.Buffer
	SetOutput(&buf)
	SetLevel(Off)
	Printf(Events, "eth", "should not appear")
	Flush()
	if buf.Len() != 0 {
		t.Fatalf("emitted %q at level Off", buf.String())
	}
}

func TestLevelFiltering(t *testing.T) {
	defer reset()
	var buf bytes.Buffer
	SetOutput(&buf)
	SetLevel(Events)
	Printf(Events, "eth", "event %d", 1)
	Printf(Packets, "eth", "packet detail")
	Flush()
	out := buf.String()
	if !strings.Contains(out, "event 1") {
		t.Fatalf("event line missing: %q", out)
	}
	if strings.Contains(out, "packet detail") {
		t.Fatalf("packet line leaked at Events level: %q", out)
	}
	SetLevel(Packets)
	Printf(Packets, "ip", "packet %s", "now")
	Flush()
	if !strings.Contains(buf.String(), "packet now") {
		t.Fatal("packet line missing at Packets level")
	}
}

func TestEnabled(t *testing.T) {
	defer reset()
	SetLevel(Events)
	if !Enabled(Events) || Enabled(Packets) {
		t.Fatal("Enabled disagrees with level")
	}
}

func TestComponentTag(t *testing.T) {
	defer reset()
	var buf bytes.Buffer
	SetOutput(&buf)
	SetLevel(Events)
	Printf(Events, "client/vip", "opened")
	Flush()
	if !strings.HasPrefix(buf.String(), "client/vip") {
		t.Fatalf("line = %q", buf.String())
	}
}

func TestSetOutputFlushesPreviousWriter(t *testing.T) {
	defer reset()
	var first, second bytes.Buffer
	SetOutput(&first)
	SetLevel(Events)
	Printf(Events, "eth", "buffered line")
	// The line sits in the buffer; switching writers must not lose it.
	SetOutput(&second)
	if !strings.Contains(first.String(), "buffered line") {
		t.Fatalf("line lost on SetOutput: first=%q", first.String())
	}
	Printf(Events, "eth", "later line")
	Flush()
	if !strings.Contains(second.String(), "later line") {
		t.Fatalf("new writer missing line: %q", second.String())
	}
	if strings.Contains(second.String(), "buffered line") {
		t.Fatalf("old line leaked into new writer: %q", second.String())
	}
}

func TestConcurrentEmission(t *testing.T) {
	defer reset()
	var buf bytes.Buffer
	SetOutput(&buf)
	SetLevel(Packets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				Printf(Packets, "p", "line %d-%d", i, j)
			}
		}(i)
	}
	wg.Wait()
	Flush()
	lines := strings.Count(buf.String(), "\n")
	if lines != 400 {
		t.Fatalf("got %d lines, want 400", lines)
	}
}

// syncedBuffer is a bytes.Buffer safe for the concurrent SetOutput test
// (Flush may write while the test goroutine swaps writers).
type syncedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestConcurrentReconfiguration exercises the mu/atomic split under the
// race detector: Printf, SetOutput, SetLevel, Enabled and Flush all run
// in parallel.
func TestConcurrentReconfiguration(t *testing.T) {
	defer reset()
	SetLevel(Packets)
	SetOutput(&syncedBuffer{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				Printf(Packets, "writer", "line %d-%d", i, j)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			SetOutput(&syncedBuffer{})
			Flush()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			SetLevel(Level(j % 3))
			_ = Enabled(Packets)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 400; j++ {
			Flush()
		}
	}()
	wg.Wait()
}

// TestPrintfDisabledAllocs proves a disabled Printf with formatting
// arguments performs zero allocations — the hot-path guarantee
// protocols rely on when tracing is off. (Integer and constant
// arguments never escape; values needing heap boxing — strings,
// structs — should sit behind an Enabled() guard, which is itself
// allocation-free.)
func TestPrintfDisabledAllocs(t *testing.T) {
	defer reset()
	SetLevel(Off)
	SetOutput(io.Discard)
	allocs := testing.AllocsPerRun(1000, func() {
		Printf(Packets, "client/eth", "demux type=%#04x len=%d frag=%d", 0x3001, 64, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled Printf allocated %.1f times per call, want 0", allocs)
	}
	addr := "02:00:00:00:00:01"
	allocs = testing.AllocsPerRun(1000, func() {
		if Enabled(Packets) {
			Printf(Packets, "client/eth", "demux src=%s", addr)
		}
	})
	if allocs != 0 {
		t.Fatalf("guarded disabled Printf allocated %.1f times per call, want 0", allocs)
	}
}

// TestGuardedSiteNonConstantArgsAllocs is the per-message shape: a
// frame length, an address array and a sequence number read from live
// state, none of them constants. Behind the Enabled guard the site costs
// nothing with tracing off; the bare call boxes each argument before
// Printf can look at the level, which is why the guard is the rule on
// Push/Pop/Demux paths.
func TestGuardedSiteNonConstantArgsAllocs(t *testing.T) {
	defer reset()
	SetLevel(Off)
	SetOutput(io.Discard)
	type frame struct {
		src [6]byte
		seq uint32
		n   int
	}
	frames := make([]frame, 64)
	for i := range frames {
		frames[i] = frame{src: [6]byte{2, 0, 0, 0, 0, byte(i)}, seq: uint32(1000 + i), n: 1500 - i}
	}
	i := 0
	guarded := testing.AllocsPerRun(1000, func() {
		f := &frames[i%len(frames)]
		i++
		if Enabled(Packets) {
			Printf(Packets, "client/eth", "demux src=%x seq=%d len=%d", f.src, f.seq, f.n)
		}
	})
	if guarded != 0 {
		t.Fatalf("guarded disabled site allocated %.1f times per message, want 0", guarded)
	}
	bare := testing.AllocsPerRun(1000, func() {
		f := &frames[i%len(frames)]
		i++
		Printf(Packets, "client/eth", "demux src=%x seq=%d len=%d", f.src, f.seq, f.n)
	})
	t.Logf("the same site unguarded: %.1f allocations per message with tracing off", bare)
}

// BenchmarkTracePrintfDisabled measures the disabled-path cost of a
// Printf on a hot path; run with -benchmem to confirm 0 allocs/op.
func BenchmarkTracePrintfDisabled(b *testing.B) {
	defer reset()
	SetLevel(Off)
	SetOutput(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Printf(Packets, "client/eth", "demux type=%#04x len=%d frag=%d", 0x3001, 64, 3)
	}
}

// BenchmarkTracePrintfDisabledGuarded shows the Enabled() idiom for
// arguments that would otherwise box (strings, addresses).
func BenchmarkTracePrintfDisabledGuarded(b *testing.B) {
	defer reset()
	SetLevel(Off)
	SetOutput(io.Discard)
	addr := "02:00:00:00:00:01"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Enabled(Packets) {
			Printf(Packets, "client/eth", "demux src=%s len=%d", addr, 64)
		}
	}
}

// BenchmarkTracePrintfEnabled measures the formatted, buffered emit
// path for comparison.
func BenchmarkTracePrintfEnabled(b *testing.B) {
	defer reset()
	SetLevel(Packets)
	SetOutput(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Printf(Packets, "client/eth", "demux type=%#04x len=%d", 0x3001, 64)
	}
}
