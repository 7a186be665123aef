package bench

import (
	"strings"
	"testing"
	"time"

	"xkernel/internal/obs/prof"
)

// TestCaptureProfilesLabelsAndReport drives the capture harness end to
// end: all four profiles decode, the CPU profile carries both the
// stack= and layer= labels the harness plants (the labels-survive
// assertion), and the built report speaks the wrap-name layer
// vocabulary. CPU sampling at 100Hz is sparse, so the labeled-sample
// assertion retries a few capture windows before giving up.
func TestCaptureProfilesLabelsAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("profile capture windows too long for -short")
	}
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		res, err := CaptureProfiles(CaptureOptions{
			Dir:      t.TempDir(),
			Stacks:   []Stack{ChanFragVIP},
			PerStack: 350 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RPCs == 0 {
			t.Fatal("capture completed zero round trips")
		}

		cpu, err := prof.ParseFile(res.CPUPath)
		if err != nil {
			t.Fatal(err)
		}
		var haveStack, haveBoth bool
		for i := range cpu.Samples {
			s := &cpu.Samples[i]
			if s.Label(prof.LabelStack) == string(ChanFragVIP) {
				haveStack = true
				if s.Label(prof.LabelLayer) != "" {
					haveBoth = true
					break
				}
			}
		}
		if !haveBoth {
			lastErr = "no CPU sample carries both stack= and layer= labels"
			if !haveStack {
				lastErr = "no CPU sample carries the stack= label"
			}
			continue
		}

		rep, err := ReportFromCapture(res)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != prof.ReportKind || len(rep.Layers) == 0 {
			t.Fatalf("report: kind %q, %d layers", rep.Kind, len(rep.Layers))
		}
		if rep.Options.RPCs != res.RPCs || len(rep.Options.Stacks) != 1 {
			t.Fatalf("report options: %+v", rep.Options)
		}
		// At least one layer must be a host-prefixed wrap name — the
		// vocabulary the anatomy table prints.
		var wrapNamed bool
		for _, l := range rep.Layers {
			if strings.HasPrefix(l.Layer, "client/") || strings.HasPrefix(l.Layer, "server/") {
				wrapNamed = true
				break
			}
		}
		if !wrapNamed {
			names := make([]string, 0, len(rep.Layers))
			for _, l := range rep.Layers {
				names = append(names, l.Layer)
			}
			lastErr = "no wrap-named layer in report: " + strings.Join(names, ", ")
			continue
		}
		return
	}
	t.Skipf("after 3 capture windows: %s (starved CI machine)", lastErr)
}
