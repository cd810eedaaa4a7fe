package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Max(3) // lower: a high-water mark keeps 5
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after Max(3), Max(9) = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 900, 1024} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+1+2+3+900+1024 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Expected buckets: le=0 (the 0), le=1 (two 1s), le=3 (2 and 3),
	// le=1023 (900), le=2047 (1024).
	want := map[int64]int64{0: 1, 1: 2, 3: 2, 1023: 1, 2047: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d (all: %+v)", b.Le, b.Count, want[b.Le], s.Buckets)
		}
	}
}

func TestBucketIndexBounds(t *testing.T) {
	if bucketIndex(-5) != 0 || bucketIndex(0) != 0 {
		t.Fatal("non-positive values must land in bucket 0")
	}
	if bucketUpper(64) != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d", bucketUpper(64))
	}
	var h Histogram
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Le != math.MaxInt64 {
		t.Fatalf("maxint snapshot = %+v", s.Buckets)
	}
}

func TestRegistryIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "endpoint", "query")
	b := r.Counter("requests_total", "endpoint", "query")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("requests_total", "endpoint", "keyword")
	if a == other {
		t.Fatal("distinct labels must return distinct counters")
	}
	a.Add(3)
	other.Inc()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Deterministic order: labels sorted lexically within a name.
	if snap[0].Labels["endpoint"] != "keyword" || snap[0].Value != 1 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].Labels["endpoint"] != "query" || snap[1].Value != 3 {
		t.Fatalf("snapshot[1] = %+v", snap[1])
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(42)
	r.Histogram("latency_us", "endpoint", "query").Observe(100)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []Metric
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Histogram == nil || back[0].Histogram.Count != 1 {
		t.Fatalf("round trip = %s", data)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", "endpoint", "query", "code", "200").Add(2)
	r.Gauge("cache_entries").Set(9)
	h := r.Histogram("latency_us")
	h.Observe(3)
	h.Observe(100)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{endpoint="query",code="200"} 2`,
		"# TYPE cache_entries gauge",
		"cache_entries 9",
		"# TYPE latency_us histogram",
		`latency_us_bucket{le="3"} 1`,
		`latency_us_bucket{le="127"} 2`,
		`latency_us_bucket{le="+Inf"} 2`,
		"latency_us_sum 103",
		"latency_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent updates shared metrics from several goroutines,
// then registers new ones from several more while a reader exposes the
// registry, as /metrics does under load: a read racing a first
// registration is a data race under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}

	const writers, gauges = 4, 100
	var stop atomic.Bool
	read := make(chan struct{})
	go func() {
		defer close(read)
		for first := true; first || !stop.Load(); first = false {
			r.Snapshot()
			r.WritePrometheus(io.Discard)
		}
	}()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < gauges; j++ {
				r.Gauge("g", "writer", strconv.Itoa(i), "n", strconv.Itoa(j)).Set(int64(j))
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-read
	if got, want := len(r.Snapshot()), 2+writers*gauges; got != want {
		t.Fatalf("snapshot holds %d metrics, want %d", got, want)
	}
}

func TestCollectorSink(t *testing.T) {
	var c Collector
	c.RunStart(RunInfo{Algorithm: "Whirlpool-S", K: 5})
	c.RouteDecision(1, 2)
	c.Threshold(0.5)
	c.QueueDepth(-1, 3)
	c.MatchLifecycle(MatchesSpawned, 4)
	c.MatchLifecycle(MatchesPruned, 2)
	c.RunEnd(RunSummary{ServerOps: 10, Answers: 5})
	if got := c.CountKind("route"); got != 1 {
		t.Fatalf("route events = %d", got)
	}
	if got := c.LifeTotal(MatchesSpawned); got != 4 {
		t.Fatalf("created total = %d", got)
	}
	events := c.Events()
	if len(events) != 7 || events[0].Kind != "run_start" || events[6].Kind != "run_end" {
		t.Fatalf("events = %+v", events)
	}
	for i, e := range events {
		if e.I != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.I)
		}
	}
}

// TestJSONLSink: WriteJSONL writes one JSON object per line, in
// recording order, each decoding back to the event recorded.
func TestJSONLSink(t *testing.T) {
	var c Collector
	c.RunStart(RunInfo{Algorithm: "Whirlpool-M", Routing: "min_alive_partial_matches"})
	c.Threshold(1.25)
	c.RunEnd(RunSummary{Answers: 3, DurationUS: 42})
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	if want := c.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL decodes to %+v, want %+v", got, want)
	}
}
