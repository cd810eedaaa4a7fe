package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
)

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// later change is rejected; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// runSeconds is how long one contract run measures.
const runSeconds = 20

// endToEnd are the metrics a user of whirlpoold sees, measured with
// tracing off from one closed-loop connection. error_rate is reported
// too, but as the attempted/failed counts of the result line: it must
// be 0, and a gated metric may never be 0.
//
// Every time among them is corrected by the host reference
// (hostref.go), so it reads "on the sizing host when it is quiet"
// whatever the shared host was doing meanwhile; the measured figures
// are printed beside them as raw_qps, raw_p50_ms and raw_setup_s.
//
//   - qps is what one caller gets: correct responses ÷ the time they
//     were in flight.
//   - p50_ms is the median latency of every request group (a mix class;
//     a cold_shapes template and mode), averaged over the groups: the
//     expected median of a request drawn from the workload. The median
//     of the pooled latencies would sit in the gap between two classes
//     of a mix that is 18 spikes, and jump between them.
//   - tail_ratio is the 90th percentile of latency ÷ its group's median
//     over all requests: how much slower than its kind a slow request
//     is (collector, scheduler, a skewed shard), whatever the mix.
//
// The bounds are what a 2-vCPU shared host allows, not what the code
// needs (README.md, "Noise").
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ratio", "ratio", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists every per-layer metric of the traced run, layer =
// module name. A metric whose layer is not on a workload's path reads 0
// there (shard.* off sharded_mix, class.* on cold_shapes, …).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "whirlpoold.http_self_ms", unit: "ms", better: "lower"},
		{name: "whirlpoold.engine_cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "whirlpoold.response_bytes", unit: "B", better: "lower"},
		{name: "whirlpoold.single_client_p50_ms", unit: "ms", better: "lower"},
		{name: "whirlpoold.decode_us", unit: "us", better: "lower"},
		{name: "whirlpoold.render_us", unit: "us", better: "lower"},
		{name: "whirlpoold.encode_us", unit: "us", better: "lower"},
		{name: "whirlpoold.unattributed_ms", unit: "ms", better: "lower"},
		{name: "whirlpoold.unattributed_ratio", unit: "ratio", better: "lower"},
		{name: "whirlpoold.unattributed_max_ratio", unit: "ratio", better: "lower"},
		{name: "pattern.parse_us", unit: "us", better: "lower"},
		{name: "pattern.canonical_key_us", unit: "us", better: "lower"},
		{name: "planner.plan_miss_us", unit: "us", better: "lower"},
		{name: "planner.plan_hit_us", unit: "us", better: "lower"},
		{name: "planner.hit_ratio", unit: "ratio", better: "higher"},
		{name: "planner.evictions", unit: "count", better: "lower"},
		{name: "planner.daemon_planning_us", unit: "us", better: "lower"},
		{name: "synopsis.build_ms", unit: "ms", better: "lower"},
		{name: "core.took_ms", unit: "ms", better: "lower"},
		{name: "core.matches_created", unit: "count", better: "lower"},
		{name: "core.server_ops", unit: "count", better: "lower"},
		{name: "core.pruned", unit: "count", better: "higher"},
		{name: "core.matches_per_answer", unit: "ratio", better: "lower"},
		{name: "core.prune_ratio", unit: "ratio", better: "higher"},
		{name: "core.engine_build_us", unit: "us", better: "lower"},
		{name: "core.run_ms", unit: "ms", better: "lower"},
		{name: "core.seed_ms", unit: "ms", better: "lower"},
		{name: "core.step_ms", unit: "ms", better: "lower"},
		{name: "core.finish_ms", unit: "ms", better: "lower"},
		{name: "core.join_comparisons", unit: "count", better: "lower"},
		{name: "core.peak_queue_depth", unit: "count", better: "lower"},
		{name: "core.threshold_updates", unit: "count", better: "lower"},
		{name: "core.ns_per_server_op", unit: "ns", better: "lower"},
		{name: "core.allocs_per_run", unit: "count", better: "lower"},
		{name: "core.bytes_per_run", unit: "B", better: "lower"},
		{name: "index.build_ms", unit: "ms", better: "lower"},
		{name: "index.probe_ns", unit: "ns", better: "lower"},
		{name: "index.candidates_per_probe", unit: "count", better: "lower"},
		{name: "index.probe_allocs", unit: "count", better: "lower"},
		{name: "store.snapshot_write_ms", unit: "ms", better: "lower"},
		{name: "store.snapshot_bytes_per_doc_byte", unit: "ratio", better: "lower"},
		{name: "store.open_ms", unit: "ms", better: "lower"},
		{name: "store.first_query_ms", unit: "ms", better: "lower"},
		{name: "store.probe_ns", unit: "ns", better: "lower"},
		{name: "store.private_rss_mb", unit: "MB", better: "lower"},
		{name: "shard.steals", unit: "count", better: "lower"},
		{name: "shard.stolen_matches", unit: "count", better: "lower"},
		{name: "shard.pruned_remote_ratio", unit: "ratio", better: "higher"},
		{name: "shard.skew", unit: "ratio", better: "lower"},
		{name: "shard.workers_peak", unit: "count", better: "higher"},
		{name: "shard.merge_us", unit: "us", better: "lower"},
		{name: "shard.run_ms", unit: "ms", better: "lower"},
		{name: "shard.work_ratio", unit: "ratio", better: "lower"},
		{name: "shard.split_ms", unit: "ms", better: "lower"},
		{name: "shard.probe_ns", unit: "ns", better: "lower"},
		{name: "xmltree.parse_ms", unit: "ms", better: "lower"},
		{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	}
	for _, c := range mixClasses() {
		defs = append(defs, metricDef{name: classMetric(c.name), unit: "ms", better: "lower"})
	}
	return defs
}

// classMetric names the daemon's single-client p50 of one mix class.
func classMetric(class string) string { return "whirlpoold.class." + class + ".p50_ms" }

// manifest is BENCHMARK.json: exactly the keys the contract prescribes.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// newManifest renders the harness's own tables as BENCHMARK.json, so
// the file cannot drift from what the command prints.
func newManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return m
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a manifest against the contract's limits.
func (m manifest) validate() error {
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", m.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) error {
		if !nameRule.MatchString(n) {
			return fmt.Errorf("name %q breaks the name rule", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, group := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		for _, d := range group {
			if err := name(d.Name); err != nil {
				return err
			}
			if !unitRule.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	for _, d := range m.PerLayer {
		if d.Bound != nil {
			return fmt.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	return nil
}

// result is one run of one workload, in either mode.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// invalid lists violated workload assumptions (a cache hit on
	// cold_shapes, a miss on a mix): the run is not correct even if
	// every answer was.
	invalid  []string
	failures []string // first few failed requests, for the log
	metrics  map[string]float64
	notes    []string // noise-guard lines
}

func (r *result) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric of the run by name with its unit.
func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d, error_rate %.6f\n",
		r.workload, mode, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-13s %-44s %16.4f %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	extra := make([]string, 0, len(r.metrics))
	known := make(map[string]bool)
	for _, d := range r.defs() {
		known[d.name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-13s %-44s %16.4f (informational)\n", r.workload, name, r.metrics[name])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-13s note: %s\n", r.workload, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-13s FAILED: %s\n", r.workload, f)
	}
	for _, f := range r.invalid {
		fmt.Fprintf(w, "%-13s INVALID: %s\n", r.workload, f)
	}
}

// resultLine renders the contract's final stdout line.
func (r *result) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value)}
	for _, d := range r.defs() {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(out)
}
