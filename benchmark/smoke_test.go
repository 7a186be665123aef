package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// manifest is BENCHMARK.json, generated from the tables in this
// package so the file and the program cannot name different things.
func manifest() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, entry{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{m.name, m.unit, m.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// BENCHMARK.json names exactly the workloads and metrics the program
// emits, with the same units, directions and bounds — both ways,
// because the file must equal what the tables generate.
func TestManifestMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := manifest()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; run go test ./benchmark -run Manifest -update")
	}

	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s defined twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads() {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over the 200 the contract allows", w.name, len(w.why))
		}
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, other := w.inputs(42), w.inputs(42), w.inputs(43)
		if len(a)&(len(a)-1) != 0 {
			t.Fatalf("%s: %d inputs, not a power of two", w.name, len(a))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: input %d differs between two runs of one seed", w.name, i)
			}
			if len(a[i]) != w.size || len(other[i]) != w.size {
				t.Fatalf("%s: input %d is %d and %d bytes, want %d", w.name, i, len(a[i]), len(other[i]), w.size)
			}
			differs = differs || !bytes.Equal(a[i], other[i])
		}
		if w.size > 0 && !differs {
			t.Errorf("%s: another seed gave the same bytes", w.name)
		}
	}
}

// Every workload, untraced and traced, at the smallest size that still
// exercises every pass. It is kept to a few seconds of CPU: go test runs
// packages side by side, and tests elsewhere in the repository retransmit
// on millisecond timers.
func TestSmoke(t *testing.T) {
	const d = 100 * time.Millisecond
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.clients == 1 && w.size > 0 {
				t.Skip("-short runs the two extremes: null_rpc and contended")
			}
			e2e, err := runEndToEnd(w, 1, d)
			if err != nil {
				t.Fatal(err)
			}
			hold(t, e2e, endToEnd)

			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			traced, err := runTraced(w, 1, d, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			hold(t, traced, perLayer)
			v := traced.values
			for _, zero := range []string{"app.failed_share", "sim.dropped_frames"} {
				if v[zero] != 0 {
					t.Errorf("%s = %v, want 0", zero, v[zero])
				}
			}
			if v["app.harness_allocs_per_call"] > 1e-3 {
				t.Errorf("the measuring loop allocates %v objects per call", v["app.harness_allocs_per_call"])
			}
			for _, one := range []string{"channel.execs_per_call", "mrpc.execs_per_call"} {
				if v[one] != 1 {
					t.Errorf("%s = %v, want exactly 1 on a lossless wire", one, v[one])
				}
			}

			// The ladder adds up: the lowest rung the workload ran plus
			// every layer above it is the layered stack's allocation
			// count, as the untraced run measured it.
			var sum float64
			for _, rung := range floorRungs {
				if sum = v[topLayer[rung]+".rung_allocs"]; sum != 0 {
					break
				}
			}
			for _, layer := range []string{"fragment", "channel", "selectp"} {
				sum += v[layer+".self_allocs"]
			}
			// (Within 3 %: runs this short are still warming up, and under
			// the race detector sync.Pool drops items at random.)
			if want := e2e.values["lrpc_allocs_per_call"]; math.Abs(sum-want) > 0.03*want {
				t.Errorf("floor + layer allocations = %.2f, untraced lrpc_allocs_per_call = %.2f", sum, want)
			}

			checkTrace(t, tracePath, w)
		})
	}
}

func hold(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if err := res.check(defs); err != nil {
		t.Error(err)
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Errorf("attempted %d, failed %d, correct %v: %s", res.attempted, res.failed, res.correct, res.note)
	}
}

// checkTrace reads the span file back: every line parses, belongs to a
// rung of this workload's ladder, runs forward in time, and names
// parents that are in the file.
func checkTrace(t *testing.T, path string, w workload) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rungs := map[string]bool{}
	for _, s := range rungsFor(w) {
		rungs[string(s)] = true
	}
	var lines []traceLine
	ids := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if l.Workload != w.name || !rungs[l.Rung] || l.Layer != topLayer[l.Rung] || l.EndNs < l.StartNs {
			t.Fatalf("bad span %+v", l)
		}
		lines = append(lines, l)
		ids[spanName(l.Rung, l.ID)] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < len(rungs) {
		t.Fatalf("%d spans for %d rungs", len(lines), len(rungs))
	}
	for _, l := range lines {
		for _, p := range l.Parents {
			if !ids[p] {
				t.Fatalf("span %s names parent %s, which is not in the trace", spanName(l.Rung, l.ID), p)
			}
		}
	}
}
