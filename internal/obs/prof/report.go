package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReportKind is the "kind" field value marking a profile report (load
// reports say "load").
const ReportKind = "prof"

// LayerRow is one layer's resource anatomy: CPU self/total
// nanoseconds, allocation bytes/objects, and lock-wait nanoseconds,
// with each dimension's share of the profile-wide total. Self charges
// a sample to exactly one layer (SelfLayer); Total charges it to every
// layer its stack passes through (StackLayers), so totals across rows
// exceed 100% by design, exactly like an inclusive flame graph.
type LayerRow struct {
	Layer         string  `json:"layer"`
	CPUSelfNs     int64   `json:"cpu_self_ns,omitempty"`
	CPUTotalNs    int64   `json:"cpu_total_ns,omitempty"`
	CPUSharePct   float64 `json:"cpu_share_pct,omitempty"`
	AllocBytes    int64   `json:"alloc_bytes,omitempty"`
	AllocObjects  int64   `json:"alloc_objects,omitempty"`
	AllocSharePct float64 `json:"alloc_share_pct,omitempty"`
	MutexNs       int64   `json:"mutex_ns,omitempty"`
	MutexCount    int64   `json:"mutex_count,omitempty"`
	MutexSharePct float64 `json:"mutex_share_pct,omitempty"`
	BlockNs       int64   `json:"block_ns,omitempty"`
}

// LockRow is one lock class's contention: total wait nanoseconds and
// contended acquisitions, named in the lockorder pass's vocabulary
// (see LockClass).
type LockRow struct {
	Class  string `json:"class"`
	WaitNs int64  `json:"wait_ns"`
	Count  int64  `json:"count"`
}

// ReportOptions records how the profiles were produced, enough for a
// regression check to re-capture comparable profiles.
type ReportOptions struct {
	// Stacks are the bench stacks that ran during capture.
	Stacks []string `json:"stacks,omitempty"`
	// RPCs is the number of round trips completed while the profiles
	// were recording; with it, per-call CPU cost joins the per-call
	// wall-clock the anatomy table reports (queueing vs compute).
	RPCs int64 `json:"rpcs,omitempty"`
	// Source names the producer ("xkprof", "xkload@16", ...).
	Source string `json:"source,omitempty"`
}

// Report is the per-layer resource anatomy built from up to four
// profiles. Any dimension whose profile was absent is zero throughout.
type Report struct {
	Kind    string        `json:"kind"`
	Options ReportOptions `json:"options,omitempty"`

	CPUTotalNs   int64 `json:"cpu_total_ns,omitempty"`
	AllocBytes   int64 `json:"alloc_bytes,omitempty"`
	AllocObjects int64 `json:"alloc_objects,omitempty"`
	MutexNs      int64 `json:"mutex_ns,omitempty"`
	BlockNs      int64 `json:"block_ns,omitempty"`

	Layers []LayerRow `json:"layers"`
	Locks  []LockRow  `json:"locks,omitempty"`
}

// BuildReport aggregates decoded profiles into the per-layer table.
// Any of the four may be nil; sample dimensions are located by name so
// profile order inside each file does not matter.
func BuildReport(cpu, heap, mutex, block *Profile) *Report {
	rows := map[string]*LayerRow{}
	row := func(layer string) *LayerRow {
		r, ok := rows[layer]
		if !ok {
			r = &LayerRow{Layer: layer}
			rows[layer] = r
		}
		return r
	}
	rep := &Report{Kind: ReportKind}

	if cpu != nil {
		if vi := cpu.ValueIndex("cpu"); vi >= 0 {
			for i := range cpu.Samples {
				s := &cpu.Samples[i]
				ns := s.Values[vi]
				rep.CPUTotalNs += ns
				row(SelfLayer(s)).CPUSelfNs += ns
				for _, l := range StackLayers(s) {
					row(l).CPUTotalNs += ns
				}
			}
		}
	}
	if heap != nil {
		bi, oi := heap.ValueIndex("alloc_space"), heap.ValueIndex("alloc_objects")
		for i := range heap.Samples {
			s := &heap.Samples[i]
			r := row(SelfLayer(s))
			if bi >= 0 {
				rep.AllocBytes += s.Values[bi]
				r.AllocBytes += s.Values[bi]
			}
			if oi >= 0 {
				rep.AllocObjects += s.Values[oi]
				r.AllocObjects += s.Values[oi]
			}
		}
	}
	locks := map[string]*LockRow{}
	if mutex != nil {
		di, ci := mutex.ValueIndex("delay"), mutex.ValueIndex("contentions")
		for i := range mutex.Samples {
			s := &mutex.Samples[i]
			r := row(SelfLayer(s))
			if di >= 0 {
				rep.MutexNs += s.Values[di]
				r.MutexNs += s.Values[di]
			}
			if ci >= 0 {
				r.MutexCount += s.Values[ci]
			}
			if class := LockClass(s); class != "" {
				lr, ok := locks[class]
				if !ok {
					lr = &LockRow{Class: class}
					locks[class] = lr
				}
				if di >= 0 {
					lr.WaitNs += s.Values[di]
				}
				if ci >= 0 {
					lr.Count += s.Values[ci]
				}
			}
		}
	}
	if block != nil {
		if di := block.ValueIndex("delay"); di >= 0 {
			for i := range block.Samples {
				s := &block.Samples[i]
				rep.BlockNs += s.Values[di]
				row(SelfLayer(s)).BlockNs += s.Values[di]
			}
		}
	}

	for _, r := range rows {
		if rep.CPUTotalNs > 0 {
			r.CPUSharePct = 100 * float64(r.CPUSelfNs) / float64(rep.CPUTotalNs)
		}
		if rep.AllocBytes > 0 {
			r.AllocSharePct = 100 * float64(r.AllocBytes) / float64(rep.AllocBytes)
		}
		if rep.MutexNs > 0 {
			r.MutexSharePct = 100 * float64(r.MutexNs) / float64(rep.MutexNs)
		}
		rep.Layers = append(rep.Layers, *r)
	}
	sort.Slice(rep.Layers, func(i, j int) bool {
		a, b := &rep.Layers[i], &rep.Layers[j]
		if a.CPUSelfNs != b.CPUSelfNs {
			return a.CPUSelfNs > b.CPUSelfNs
		}
		if a.AllocBytes != b.AllocBytes {
			return a.AllocBytes > b.AllocBytes
		}
		if a.MutexNs != b.MutexNs {
			return a.MutexNs > b.MutexNs
		}
		return a.Layer < b.Layer
	})
	for _, lr := range locks {
		rep.Locks = append(rep.Locks, *lr)
	}
	sort.Slice(rep.Locks, func(i, j int) bool {
		if rep.Locks[i].WaitNs != rep.Locks[j].WaitNs {
			return rep.Locks[i].WaitNs > rep.Locks[j].WaitNs
		}
		return rep.Locks[i].Class < rep.Locks[j].Class
	})
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the per-layer anatomy as an aligned text table,
// at most top rows (0 = all), followed by the lock-class table when
// contention was recorded.
func (r *Report) WriteTable(w io.Writer, top int) {
	fmt.Fprintf(w, "%-18s %12s %7s %12s %12s %10s %7s %10s\n",
		"layer", "cpu self", "cpu%", "cpu total", "alloc", "objects", "alloc%", "lock wait")
	n := len(r.Layers)
	if top > 0 && top < n {
		n = top
	}
	for i := 0; i < n; i++ {
		l := &r.Layers[i]
		fmt.Fprintf(w, "%-18s %12s %6.1f%% %12s %12s %10d %6.1f%% %10s\n",
			l.Layer, fmtNs(l.CPUSelfNs), l.CPUSharePct, fmtNs(l.CPUTotalNs),
			fmtBytes(l.AllocBytes), l.AllocObjects, l.AllocSharePct, fmtNs(l.MutexNs))
	}
	if n < len(r.Layers) {
		fmt.Fprintf(w, "… %d more layers\n", len(r.Layers)-n)
	}
	fmt.Fprintf(w, "total: cpu %s, alloc %s (%d objects), lock wait %s, block %s\n",
		fmtNs(r.CPUTotalNs), fmtBytes(r.AllocBytes), r.AllocObjects, fmtNs(r.MutexNs), fmtNs(r.BlockNs))
	if r.Options.RPCs > 0 && r.CPUTotalNs > 0 {
		fmt.Fprintf(w, "per call: cpu %s over %d rpcs\n",
			fmtNs(r.CPUTotalNs/r.Options.RPCs), r.Options.RPCs)
	}
	if len(r.Locks) > 0 {
		fmt.Fprintf(w, "\n%-28s %12s %8s\n", "lock class", "wait", "count")
		for i := range r.Locks {
			lk := &r.Locks[i]
			fmt.Fprintf(w, "%-28s %12s %8d\n", lk.Class, fmtNs(lk.WaitNs), lk.Count)
		}
	}
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
