package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xkernel/internal/obs/prof"
)

// TestCaptureDecodeReport is the full xkprof pipeline: capture real
// profiles by driving a stack, decode them from their files, and check
// the per-layer table is non-empty — the same smoke check.sh runs.
func TestCaptureDecodeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("profile capture too long for -short")
	}
	dir := t.TempDir()
	rep, err := runCapture(dir, "CHANNEL-FRAGMENT-VIP", 300*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers) == 0 || rep.CPUTotalNs == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Options.RPCs == 0 {
		t.Error("no RPCs recorded")
	}
	if rep.Options.Source != "xkprof" {
		t.Errorf("report source = %q, want xkprof", rep.Options.Source)
	}

	// The same files decode through the positional-argument path.
	files, err := filepath.Glob(filepath.Join(dir, "*.pb.gz"))
	if err != nil || len(files) != 4 {
		t.Fatalf("glob: %v, %d files", err, len(files))
	}
	rep2, err := reportFromFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Layers) == 0 {
		t.Fatal("file-path report has no layers")
	}
	var table strings.Builder
	rep2.WriteTable(&table, 0)
	if !strings.Contains(table.String(), "total: cpu") {
		t.Fatalf("table missing totals line:\n%s", table.String())
	}
}

func TestClassify(t *testing.T) {
	mk := func(types ...string) *prof.Profile {
		p := &prof.Profile{}
		for _, typ := range types {
			p.SampleTypes = append(p.SampleTypes, prof.ValueType{Type: typ})
		}
		return p
	}
	cases := []struct {
		path string
		p    *prof.Profile
		want string
	}{
		{"cpu.pb.gz", mk("samples", "cpu"), "cpu"},
		{"heap.pb.gz", mk("alloc_objects", "alloc_space", "inuse_objects", "inuse_space"), "heap"},
		{"mutex.pb.gz", mk("contentions", "delay"), "mutex"},
		{"x.block.pb.gz", mk("contentions", "delay"), "block"},
		{"what.pb.gz", mk("mystery"), ""},
	}
	for _, c := range cases {
		if got := classify(c.path, c.p); got != c.want {
			t.Errorf("classify(%s) = %q, want %q", c.path, got, c.want)
		}
	}
}
