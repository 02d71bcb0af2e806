package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json lists it. Bound is set only
// for end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator or the service sees,
// measured with tracing off. Every workload reports all of them;
// ns_per_op's unit of work is per workload (see README.md).
var endToEnd = []metricDef{
	{"ns_per_op", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, named <layer>.<what>. Every
// traced run reports all of them: layers the traced workload does not
// exercise are measured by one instrumented round of the workload that
// does (see layerRounds).
var perLayer = []metricDef{
	{"rls.runner_overhead_frac", "frac", "lower", 0},
	{"rls.session_add_ns", "ns", "lower", 0},
	{"rls.session_remove_ns", "ns", "lower", 0},
	{"rls.session_run_us", "us", "lower", 0},
	{"sim.activations", "count", "lower", 0},
	{"sim.moves", "count", "lower", 0},
	{"sim.sim_time", "time", "lower", 0},
	{"sim.jump.step_ns", "ns", "lower", 0},
	{"sim.graph.exact.step_ns", "ns", "lower", 0},
	{"sim.graph.hybrid.step_ns", "ns", "lower", 0},
	{"sim.graph.neighbor_calls_per_move", "count", "lower", 0},
	{"sim.direct.ns_per_activation", "ns", "lower", 0},
	{"sim.direct.accept_frac", "frac", "higher", 0},
	{"sim.sharded.ns_per_activation", "ns", "lower", 0},
	{"sim.sharded.barriers", "count", "lower", 0},
	{"sim.sharded.epoch_us", "us", "lower", 0},
	{"sim.sharded.cross_frac", "frac", "lower", 0},
	{"sim.sharded.cross_applied_frac", "frac", "higher", 0},
	{"sim.sharded.speedup_vs_direct", "x", "higher", 0},
	{"sim.sharded.speedup_vs_jump", "x", "higher", 0},
	{"loadvec.move_weight_ns", "ns", "lower", 0},
	{"loadvec.sample_move_pair_ns", "ns", "lower", 0},
	{"loadvec.strict_sample_move_pair_ns", "ns", "lower", 0},
	{"loadvec.move_ns", "ns", "lower", 0},
	{"fenwick.add_ns", "ns", "lower", 0},
	{"fenwick.find_ns", "ns", "lower", 0},
	{"rng.exp_ns", "ns", "lower", 0},
	{"rng.intn_ns", "ns", "lower", 0},
	{"rng.geometric_ns", "ns", "lower", 0},
	{"rng.erlang_ns", "ns", "lower", 0},
	{"graphs.build_ms", "ms", "lower", 0},
	{"persist.snapshot_p50_ms", "ms", "lower", 0},
	{"persist.snapshot_p99_ms", "ms", "lower", 0},
	{"persist.snapshot_bytes_per_ball", "B", "lower", 0},
	{"persist.resume_ms", "ms", "lower", 0},
	{"persist.save_all_ms", "ms", "lower", 0},
	{"service.accept_p50_ms", "ms", "lower", 0},
	{"service.accept_p99_ms", "ms", "lower", 0},
	{"service.apply_p50_ms", "ms", "lower", 0},
	{"service.apply_p99_ms", "ms", "lower", 0},
	{"service.metrics_apply_p99_ms", "ms", "lower", 0},
	{"service.queue_depth_max", "count", "lower", 0},
	{"service.rejected", "count", "lower", 0},
	{"service.apply_errors", "count", "lower", 0},
	{"serve.event_p50_ms", "ms", "lower", 0},
	{"serve.event_p99_ms", "ms", "lower", 0},
	{"serve.max_ev_s", "1/s", "higher", 0},
	{"go.alloc_bytes_per_op", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"run.fail_frac", "frac", "lower", 0},
}

// metricSet collects measured values by name. put keeps the first value
// for a name, so a workload's own layer round takes precedence over the
// rounds other workloads contribute.
type metricSet map[string]float64

func (ms metricSet) put(name string, v float64) {
	if _, ok := ms[name]; !ok {
		ms[name] = v
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the final result line from ms, which must hold a finite
// value for every metric in defs and nothing else the line would carry.
func render(defs []metricDef, ms metricSet, correct bool, attempted, failed int64) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	var missing []string
	for _, d := range defs {
		v, ok := ms[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics never measured: %v", missing)
	}
	return json.Marshal(r)
}
