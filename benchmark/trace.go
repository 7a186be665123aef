package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// topLayer names the layer a rung ends at — the layer whose public
// Push or Call the benchmark drives on that rung.
var topLayer = map[string]string{
	"VIP":                         "vip",
	"FRAGMENT-VIP":                "fragment",
	"CHANNEL-FRAGMENT-VIP":        "channel",
	"SELECT-CHANNEL-FRAGMENT-VIP": "selectp",
	"M_RPC-ETH":                   "mrpc",
	"M_RPC-IP":                    "mrpc",
	"M_RPC-VIP":                   "mrpc",
}

// traceLine is one span of trace.jsonl: one call on one rung. Spans of
// the same input share id across rungs. parents are the spans of the
// same input on the taller rungs this rung is subtracted from
// (ladderLayers): a layer's self time on an input is its rung's span
// minus the child rung's. The shortest rungs sit under both families,
// so the spans form a DAG, not a tree.
type traceLine struct {
	Workload string   `json:"workload"`
	Rung     string   `json:"rung"`
	Layer    string   `json:"layer"`
	ID       int      `json:"id"`
	StartNs  int64    `json:"start_ns"`
	EndNs    int64    `json:"end_ns"`
	Parents  []string `json:"parents"`
}

// spanName is how one span refers to another.
func spanName(rung string, id int) string { return fmt.Sprintf("%s#%d", rung, id) }

// writeTrace writes the spans kept in memory during the run.
func writeTrace(path string, w workload, rungs map[string]*pass) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)

	names := make([]string, 0, len(rungs))
	for name := range rungs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		var taller []string
		for _, l := range ladderLayers {
			if l.below == name && rungs[l.rung] != nil {
				taller = append(taller, l.rung)
			}
		}
		for _, s := range rungs[name].spans {
			line := traceLine{Workload: w.name, Rung: name, Layer: topLayer[name], ID: s.id, StartNs: s.start, EndNs: s.end, Parents: []string{}}
			for _, t := range taller {
				if s.id < len(rungs[t].spans) {
					line.Parents = append(line.Parents, spanName(t, s.id))
				}
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return out.Flush()
}
