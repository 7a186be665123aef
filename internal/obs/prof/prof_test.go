package prof

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestParseRealHeapProfile round-trips a profile the Go runtime itself
// emitted: the decoder must agree with the runtime about sample types
// and produce resolved stacks.
func TestParseRealHeapProfile(t *testing.T) {
	// Allocate well past the 512KB sampling rate so the profile is
	// guaranteed to carry samples even when this test runs first.
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	_ = keep
	var buf bytes.Buffer
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, want := range []string{"alloc_objects", "alloc_space", "inuse_objects", "inuse_space"} {
		if !p.HasSampleType(want) {
			t.Errorf("heap profile missing sample type %q; have %v", want, p.SampleTypes)
		}
	}
	if len(p.Samples) == 0 {
		t.Fatal("heap profile decoded zero samples")
	}
	resolved := false
	for i := range p.Samples {
		s := &p.Samples[i]
		if len(s.Values) != len(p.SampleTypes) {
			t.Fatalf("sample %d has %d values, want %d", i, len(s.Values), len(p.SampleTypes))
		}
		for _, fr := range s.Stack {
			if fr.Function != "" {
				resolved = true
			}
		}
	}
	if !resolved {
		t.Error("no sample resolved any function name")
	}
}

// TestParseRealCPUProfileLabels exercises the label path end to end: a
// busy loop under pprof.Do must yield CPU samples carrying the planted
// labels. CPU sampling at 100Hz is sparse, so the test retries a few
// short windows before giving up.
func TestParseRealCPUProfileLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU sampling window too long for -short")
	}
	for attempt := 0; attempt < 3; attempt++ {
		p := captureLabeledCPU(t)
		for i := range p.Samples {
			if p.Samples[i].Label(LabelLayer) == "proftest" {
				if got := SelfLayer(&p.Samples[i]); got != "proftest" {
					t.Fatalf("SelfLayer = %q, want label to win", got)
				}
				return
			}
		}
	}
	t.Skip("no labeled CPU samples after 3 attempts (starved CI machine)")
}

func captureLabeledCPU(t *testing.T) *Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels(LabelLayer, "proftest"), func(context.Context) {
		spin(200 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

var spinSink uint64

// spin burns roughly d of CPU without sleeping, so the profiler has
// something to sample.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*1664525 + 1013904223
		}
	}
}

// TestParseRejectsGarbage: corrupt input errors, never panics.
func TestParseRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // lone overlong varint
		{0x0a},             // field 1, bytes, missing length
		{0x0a, 0x10, 0x00}, // field 1 promises 16 bytes, has 1
	} {
		if _, err := Parse(data); err == nil {
			t.Errorf("Parse(% x) succeeded, want error", data)
		}
	}
	// Empty input is a valid (empty) message.
	if _, err := Parse(nil); err != nil {
		t.Errorf("Parse(nil): %v", err)
	}
}

func TestAttribution(t *testing.T) {
	sample := func(label string, fns ...string) *Sample {
		s := &Sample{}
		if label != "" {
			s.Labels = append(s.Labels, Label{Key: LabelLayer, Str: label})
		}
		for _, fn := range fns {
			s.Stack = append(s.Stack, Frame{Function: fn})
		}
		return s
	}
	cases := []struct {
		name  string
		s     *Sample
		self  string
		total []string
	}{
		{
			"label wins over frames",
			sample("client/channel", "xkernel/internal/rpc/vip.(*Protocol).Push"),
			"client/channel",
			[]string{"vip", "client/channel"},
		},
		{
			"leaf-most repo frame",
			sample("", "runtime.mallocgc", "xkernel/internal/msg.New", "xkernel/internal/rpc/channel.(*Protocol).Demux"),
			"msg",
			[]string{"msg", "channel"},
		},
		{
			"sim becomes wire",
			sample("", "xkernel/internal/sim.(*Network).deliver"),
			"wire",
			[]string{"wire"},
		},
		{
			"pure runtime",
			sample("", "runtime.gcBgMarkWorker", "runtime.systemstack"),
			LayerRuntime,
			[]string{LayerRuntime},
		},
		{
			"unattributable",
			sample("", "testing.tRunner"),
			LayerOther,
			[]string{LayerOther},
		},
	}
	for _, c := range cases {
		if got := SelfLayer(c.s); got != c.self {
			t.Errorf("%s: SelfLayer = %q, want %q", c.name, got, c.self)
		}
		got := StackLayers(c.s)
		if len(got) != len(c.total) {
			t.Errorf("%s: StackLayers = %v, want %v", c.name, got, c.total)
			continue
		}
		for i := range got {
			if got[i] != c.total[i] {
				t.Errorf("%s: StackLayers = %v, want %v", c.name, got, c.total)
				break
			}
		}
	}
}

func TestLockClass(t *testing.T) {
	sample := func(fns ...string) *Sample {
		s := &Sample{}
		for _, fn := range fns {
			s.Stack = append(s.Stack, Frame{Function: fn})
		}
		return s
	}
	cases := []struct {
		name string
		s    *Sample
		want string
	}{
		{
			"the core's channel lock under an engine's frame",
			sample("sync.(*Mutex).Unlock", "xkernel/internal/rpc/amo.(*Chan).Record", "xkernel/internal/rpc/channel.(*ServerSession).reply"),
			"(amo.Chan).mu",
		},
		{
			"receiver heuristic",
			sample("sync.(*Mutex).Unlock", "xkernel/internal/obs.(*Meter).record"),
			"(obs.Meter).mu",
		},
		{
			"closure does not fake a receiver",
			sample("sync.(*Mutex).Unlock", "xkernel/internal/load.RunLevel.func2"),
			"load.RunLevel.func2",
		},
		{
			"nothing attributable",
			sample("sync.(*Mutex).Unlock", "runtime.goexit"),
			"",
		},
	}
	for _, c := range cases {
		if got := LockClass(c.s); got != c.want {
			t.Errorf("%s: LockClass = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBuildReport(t *testing.T) {
	cpu := &Profile{
		SampleTypes: []ValueType{{"samples", "count"}, {"cpu", "nanoseconds"}},
		Samples: []Sample{
			{Values: []int64{3, 3e6}, Labels: []Label{{Key: LabelLayer, Str: "client/channel"}},
				Stack: []Frame{{Function: "xkernel/internal/rpc/channel.(*Protocol).Push"}}},
			{Values: []int64{1, 1e6},
				Stack: []Frame{{Function: "xkernel/internal/sim.(*Network).deliver"}}},
		},
	}
	heap := &Profile{
		SampleTypes: []ValueType{{"alloc_objects", "count"}, {"alloc_space", "bytes"}, {"inuse_objects", "count"}, {"inuse_space", "bytes"}},
		Samples: []Sample{
			{Values: []int64{10, 4096, 1, 64},
				Stack: []Frame{{Function: "xkernel/internal/msg.New"}}},
		},
	}
	mutex := &Profile{
		SampleTypes: []ValueType{{"contentions", "count"}, {"delay", "nanoseconds"}},
		Samples: []Sample{
			{Values: []int64{7, 5e5},
				Stack: []Frame{{Function: "sync.(*Mutex).Unlock"}, {Function: "xkernel/internal/rpc/amo.(*Chan).Commit"}, {Function: "xkernel/internal/rpc/channel.(*Protocol).serveRequest"}}},
		},
	}
	rep := BuildReport(cpu, heap, mutex, nil)
	if rep.Kind != ReportKind {
		t.Fatalf("Kind = %q", rep.Kind)
	}
	if rep.CPUTotalNs != 4e6 || rep.AllocBytes != 4096 || rep.AllocObjects != 10 || rep.MutexNs != 5e5 {
		t.Fatalf("totals: %+v", rep)
	}
	byLayer := map[string]LayerRow{}
	for _, l := range rep.Layers {
		byLayer[l.Layer] = l
	}
	cc := byLayer["client/channel"]
	if cc.CPUSelfNs != 3e6 || cc.CPUSharePct != 75 {
		t.Errorf("client/channel row: %+v", cc)
	}
	// Package-path total attribution also charges the frame layer.
	if byLayer["channel"].CPUTotalNs != 3e6 {
		t.Errorf("channel total = %d, want 3e6", byLayer["channel"].CPUTotalNs)
	}
	if byLayer["wire"].CPUSelfNs != 1e6 {
		t.Errorf("wire self = %d", byLayer["wire"].CPUSelfNs)
	}
	if byLayer["msg"].AllocBytes != 4096 || byLayer["msg"].AllocObjects != 10 {
		t.Errorf("msg row: %+v", byLayer["msg"])
	}
	// The wait is charged where the lock was released: the core's frame.
	if byLayer["amo"].MutexNs != 5e5 || byLayer["amo"].MutexCount != 7 {
		t.Errorf("amo mutex: %+v", byLayer["amo"])
	}
	if len(rep.Locks) != 1 || rep.Locks[0].Class != "(amo.Chan).mu" || rep.Locks[0].WaitNs != 5e5 || rep.Locks[0].Count != 7 {
		t.Errorf("locks: %+v", rep.Locks)
	}
	// Rows sort by CPU self descending.
	if rep.Layers[0].Layer != "client/channel" {
		t.Errorf("first layer = %q", rep.Layers[0].Layer)
	}
	var tbl strings.Builder
	rep.WriteTable(&tbl, 0)
	for _, want := range []string{"client/channel", "wire", "(amo.Chan).mu"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var doc strings.Builder
	if err := rep.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "prof"`, `"layer": "client/channel"`} {
		if !strings.Contains(doc.String(), want) {
			t.Errorf("JSON report missing %s:\n%s", want, doc.String())
		}
	}
}

// TestInertCaptureZeroAlloc pins the guard-first contract: a Capture
// with no outputs must cost nothing on the paths that thread it
// through unconditionally.
func TestInertCaptureZeroAlloc(t *testing.T) {
	var c Capture
	allocs := testing.AllocsPerRun(100, func() {
		if c.Active() {
			t.Fatal("inert capture reports active")
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("inert capture allocated %.1f times per run", allocs)
	}
}

// TestCaptureWritesProfiles drives a real capture end to end and
// decodes everything it wrote.
func TestCaptureWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	c := Capture{
		HeapPath:  filepath.Join(dir, "heap.pb.gz"),
		MutexPath: filepath.Join(dir, "mutex.pb.gz"),
		BlockPath: filepath.Join(dir, "block.pb.gz"),
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 0, 1024)
	for i := 0; i < 100; i++ {
		sink = append(sink[:0], make([]byte, 1024)...)
	}
	_ = sink
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{c.HeapPath, c.MutexPath, c.BlockPath} {
		prof, err := ParseFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(prof.SampleTypes) == 0 {
			t.Errorf("%s: no sample types", p)
		}
	}
	// Rates were restored.
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex profile fraction left at %d", got)
	}
}
