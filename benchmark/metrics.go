package main

import (
	"fmt"
	"math"
)

// metricDef is one row of BENCHMARK.json. The tables below are the
// single source of the names; the smoke test holds BENCHMARK.json to
// them in both directions.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the figures a caller of the RPC system sees. Each
// timing bound is at least three times the widest run-to-run spread
// (quartile distance over median of ten runs) seen on any workload when
// the benchmark was written — README.md has the table; the allocation
// counts repeat to the second decimal and are held to 1 %.
//
// Failures are not a metric here: a share that is 0 on every healthy
// run has no relative bound, so they travel in the result's
// attempted/failed/correct fields, and as app.failed_share in the
// traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lrpc_call_us_p25", "us", "lower", 0.25},
	{"mrpc_call_us_p25", "us", "lower", 0.25},
	{"lrpc_calls_per_s", "1/s", "higher", 0.25},
	{"mrpc_calls_per_s", "1/s", "higher", 0.25},
	{"lrpc_allocs_per_call", "count", "lower", 0.01},
	{"mrpc_allocs_per_call", "count", "lower", 0.01},
	{"lrpc_alloc_bytes_per_call", "B", "lower", 0.01},
	{"mrpc_alloc_bytes_per_call", "B", "lower", 0.01},
}

// ladderLayers are the layers the Table III subtraction prices, each
// with the rung it tops and the rung the subtraction removes.
var ladderLayers = []struct {
	layer       string
	rung, below string
}{
	{"fragment", "FRAGMENT-VIP", "VIP"},
	{"channel", "CHANNEL-FRAGMENT-VIP", "FRAGMENT-VIP"},
	{"selectp", "SELECT-CHANNEL-FRAGMENT-VIP", "CHANNEL-FRAGMENT-VIP"},
	{"mrpc", "M_RPC-VIP", "VIP"},
	{"ip", "M_RPC-IP", "M_RPC-ETH"},
	{"vip", "M_RPC-VIP", "M_RPC-ETH"},
}

// floorRungs are the rungs whose absolute cost is published: the
// lowest rung a workload can run is the floor under its layer costs
// (VIP on null_rpc, FRAGMENT-VIP on bulk_16k, CHANNEL-FRAGMENT-VIP
// where the operation is an echo or concurrent).
// Each is published under its top layer's name (topLayer).
var floorRungs = []string{"VIP", "FRAGMENT-VIP", "CHANNEL-FRAGMENT-VIP"}

// perLayer is built once: the ladder's generated names, then the
// counts, the substrate timings and the caller's-view diagnostics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	costs := func(prefix string) {
		defs = append(defs,
			metricDef{prefix + "_us", "us", "lower", 0},
			metricDef{prefix + "_allocs", "count", "lower", 0},
			metricDef{prefix + "_alloc_bytes", "B", "lower", 0})
	}
	for _, l := range ladderLayers {
		costs(l.layer + ".self")
	}
	for _, rung := range floorRungs {
		costs(topLayer[rung] + ".rung")
	}
	both := func(format, unit, better string) {
		for _, s := range []string{"lrpc", "mrpc"} {
			defs = append(defs, metricDef{fmt.Sprintf(format, s), unit, better, 0})
		}
	}
	one := func(name, unit, better string) {
		defs = append(defs, metricDef{name, unit, better, 0})
	}

	one("vipsize.bypass_us", "us", "lower")
	one("vipsize.bypass_predicted_us", "us", "lower")
	one("vipsize.prediction_error_pct", "%", "lower")

	both("eth.%s_frames_per_call", "count", "lower")
	both("sim.%s_wire_bytes_per_call", "B", "lower")
	both("sim.%s_header_overhead_pct", "%", "lower")
	one("sim.dropped_frames", "count", "lower")
	one("channel.retransmits_per_call", "count", "lower")
	one("mrpc.retransmits_per_call", "count", "lower")
	one("channel.execs_per_call", "count", "lower")
	one("mrpc.execs_per_call", "count", "lower")
	both("ledger.%s_appends_per_call", "count", "lower")
	both("ledger.%s_bytes_held", "B", "lower")

	one("msg.new_push_pop_ns", "ns", "lower")
	one("msg.new_push_pop_allocs", "count", "lower")
	one("msg.split_join_16k_ns", "ns", "lower")
	one("msg.split_join_16k_allocs", "count", "lower")
	one("msg.clone_ns", "ns", "lower")
	one("msg.bytes_4k_ns", "ns", "lower")
	one("msg.setattr_allocs", "count", "lower")
	one("pmap.resolve_ns", "ns", "lower")
	one("pmap.bind_unbind_ns", "ns", "lower")
	one("pmap.resolve_nc_ns", "ns", "lower")
	one("event.schedule_cancel_ns", "ns", "lower")
	one("event.schedule_cancel_allocs", "count", "lower")
	one("ledger.mem_record_lookup_ns", "ns", "lower")
	one("ledger.mem_record_lookup_allocs", "count", "lower")
	one("ledger.encode_frames_4k_ns", "ns", "lower")
	one("sim.frame_rtt_ns", "ns", "lower")
	one("sim.frame_rtt_allocs", "count", "lower")
	one("wire.udp.frame_rtt_us_p50", "us", "lower")
	one("wire.udp.frame_rtt_allocs", "count", "lower")

	both("app.%s_call_us_p99", "us", "lower")
	both("app.%s_call_us_p999", "us", "lower")
	one("app.layering_ratio", "ratio", "lower")
	both("app.%s_call_us_p25_raw", "us", "lower")
	both("app.%s_call_us_p50", "us", "lower")
	both("app.%s_calls_per_s_raw", "1/s", "higher")
	one("app.machine_speed_call", "ratio", "higher")
	one("app.machine_speed_rate", "ratio", "higher")
	both("app.%s_scaling", "ratio", "higher")
	one("app.clients", "count", "higher")
	one("app.failed_share", "ratio", "lower")
	one("app.harness_ns_per_call", "ns", "lower")
	one("app.harness_allocs_per_call", "count", "lower")
	one("app.trace_overhead_pct", "%", "lower")
	one("obs.wrap_overhead_us", "us", "lower")
	one("obs.wrap_overhead_allocs", "count", "lower")
	both("setup.%s_build_us", "us", "lower")
	both("setup.%s_cold_call_us", "us", "lower")
	both("runtime.%s_gc_per_kcall", "count", "lower")
	both("runtime.%s_gc_pause_us_per_kcall", "us", "lower")
	both("runtime.%s_mutex_wait_us_per_call", "us", "lower")
	return defs
}

// result is one run's outcome in the shape the driver's contract asks
// for. refused lists why the run's numbers must not be quoted — a tail
// percentile the sample count cannot support, a measuring loop that
// costs too much; the command line treats any as an error.
type result struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
	refused           []string
	note              string // what went wrong, when correct is false
}

// check holds a result to its table: every metric present, every value
// finite, nothing extra.
func (r *result) check(defs []metricDef) error {
	if len(r.values) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(r.values), len(defs))
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}
