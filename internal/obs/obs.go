// Package obs is the stdlib-only observability layer shared by the
// engine, the daemon and the benchmark driver: atomic counters, gauges
// and log-bucketed histograms behind a named registry with JSON and
// Prometheus text exposition, plus a pluggable TraceSink (trace.go) for
// per-run engine events. It imports nothing from the rest of the
// repository so every layer can depend on it without cycles.
//
// The metrics the registry exposes at serving time are the same
// measures the paper reports offline (Section 6.2.3): server
// operations, partial matches created and partial matches pruned —
// Figures 6–7 and Table 2 — surfaced live per process instead of per
// experiment.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and are dropped
// to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Max raises the gauge to n when n is higher, keeping a high-water
// mark. The loop ends the moment another raiser has published an equal
// or higher value, so contention only ever shortens it.
func (g *Gauge) Max(n int64) {
	for v := g.v.Load(); n > v; v = g.v.Load() {
		if g.v.CompareAndSwap(v, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2 buckets: bucket 0 holds values
// ≤ 0, bucket i (1 ≤ i ≤ 64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log-bucketed (base 2) histogram of int64 observations
// — latencies in microseconds, sizes in bytes or entries. Buckets double
// in width, so 64 buckets cover the whole int64 range with ≤ 2×
// resolution error, and recording is two atomic adds plus one atomic
// increment. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	// Le is the bucket's inclusive upper bound.
	Le int64 `json:"le"`
	// Count is the number of observations in this bucket alone (not
	// cumulative; the Prometheus exposition cumulates).
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's non-empty buckets. Concurrent
// observers may land between the per-bucket loads, so the bucket total
// can transiently trail Count by in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketUpper(i), Count: n})
		}
	}
	return s
}

// metric is one registered name+labels instrument.
type metric struct {
	name  string
	pairs []string // alternating key, value
	kind  string   // "counter" | "gauge" | "histogram"
	c     *Counter
	g     *Gauge
	h     *Histogram
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime; lookups after creation are one map
// access under a mutex, and the returned instruments update with
// atomics only, so cache the pointer in hot paths.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// key renders the canonical identity of a metric: name plus its label
// pairs in the given order.
func key(name string, pairs []string) string {
	if len(pairs) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	writeLabels(&b, pairs)
	b.WriteByte('}')
	return b.String()
}

func writeLabels(b *strings.Builder, pairs []string) {
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", pairs[i], pairs[i+1])
	}
}

// lookup returns the metric registered under (name, labels), creating
// it with the given kind on first use. Labels are alternating key,
// value strings; an odd count or a kind clash panics — both are
// programming errors, not runtime conditions.
func (r *Registry) lookup(kind, name string, labels []string) *metric {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for metric %s: %v", name, labels))
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[k]
	if !ok {
		m = &metric{name: name, pairs: append([]string(nil), labels...), kind: kind}
		switch kind {
		case "counter":
			m.c = &Counter{}
		case "gauge":
			m.g = &Gauge{}
		case "histogram":
			m.h = &Histogram{}
		}
		r.metrics[k] = m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", k, m.kind, kind))
	}
	return m
}

// Counter returns the counter for name and the alternating key/value
// label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup("counter", name, labels).c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup("gauge", name, labels).g
}

// Histogram returns the histogram for name and labels, creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup("histogram", name, labels).h
}

// Metric is one registry entry in a snapshot, shaped for JSON.
type Metric struct {
	Name      string             `json:"name"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Kind      string             `json:"kind"`
	Value     int64              `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// sortedMetrics returns the registered metrics ordered by name then
// rendered labels, for deterministic exposition.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return key("", out[i].pairs) < key("", out[j].pairs)
	})
	return out
}

// Snapshot returns a point-in-time copy of every registered metric,
// ordered by name then labels.
func (r *Registry) Snapshot() []Metric {
	ms := r.sortedMetrics()
	out := make([]Metric, 0, len(ms))
	for _, m := range ms {
		sm := Metric{Name: m.name, Kind: m.kind}
		if len(m.pairs) > 0 {
			sm.Labels = make(map[string]string, len(m.pairs)/2)
			for i := 0; i+1 < len(m.pairs); i += 2 {
				sm.Labels[m.pairs[i]] = m.pairs[i+1]
			}
		}
		switch m.kind {
		case "counter":
			sm.Value = m.c.Value()
		case "gauge":
			sm.Value = m.g.Value()
		case "histogram":
			h := m.h.Snapshot()
			sm.Value = h.Count
			sm.Histogram = &h
		}
		out = append(out, sm)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric name, counters and
// gauges as plain samples, histograms as cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	lastType := ""
	for _, m := range r.sortedMetrics() {
		if m.name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
			lastType = m.name
		}
		switch m.kind {
		case "counter":
			fmt.Fprintf(w, "%s %d\n", key(m.name, m.pairs), m.c.Value())
		case "gauge":
			fmt.Fprintf(w, "%s %d\n", key(m.name, m.pairs), m.g.Value())
		case "histogram":
			writePromHistogram(w, m)
		}
	}
}

func writePromHistogram(w io.Writer, m *metric) {
	s := m.h.Snapshot()
	cum := int64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabels(m.pairs, "le", fmt.Sprintf("%d", b.Le)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabels(m.pairs, "le", "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", m.name, promLabels(m.pairs), s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, promLabels(m.pairs), s.Count)
}

// promLabels renders a label set with optional extra pairs appended.
func promLabels(pairs []string, extra ...string) string {
	all := pairs
	if len(extra) > 0 {
		all = append(append([]string(nil), pairs...), extra...)
	}
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	writeLabels(&b, all)
	b.WriteByte('}')
	return b.String()
}
