package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	whirlpool "repro"
	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// smallBytes sizes the corpus the tests run on.
const smallBytes = 256 << 10

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {95, 48}, {62.5, 35},
	} {
		if got := percentile(v, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5}
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := relSpread(ten); !near(got, 1) {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := relSpread([]float64{90, 110}); !near(got, 0.2) {
		t.Errorf("relSpread of two runs = %v, want their range over the median 0.2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: 10..50 is covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // pokes out: clipped at 100
		{Name: "a1", Parent: 1, Start: 12, End: 18},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, -1)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	rec := newRecorder()
	root := rec.begin("request", 3, -1)
	child := rec.begin("x", 3, root)
	rec.end(child)
	rec.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d span lines, want 2", len(lines))
	}
	var got struct {
		ID, Req, Parent int
		Name            string
		Self            *int64 `json:"self_ns"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 1 || got.Req != 3 || got.Parent != 0 || got.Name != "x" || got.Self == nil {
		t.Errorf("span line %s lacks id/req/parent/name/self_ns", lines[1])
	}
}

// smallIndex indexes a 256 KB document of the corpus seed.
func smallIndex(t *testing.T) *index.Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := xmark.WriteBytes(&buf, corpusSeed, smallBytes); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// sequence renders the first n requests of a workload as one byte
// string.
func sequence(w *workload, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(w.classes[w.classAt(i)].body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	ix := smallIndex(t)
	for _, name := range []string{steadyMix, shardedMix, snapshotMix, coldShapes} {
		a, err := newWorkload(name, ix, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, ix, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, ix, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sequence(a, 2000), sequence(b, 2000)) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(sequence(a, 2000), sequence(c, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestMixIsWholePermutations(t *testing.T) {
	w := newMix(steadyMix, 3)
	if len(w.classes) != 18 || w.block != 18 {
		t.Fatalf("mix has %d classes, block %d; want 18, 18", len(w.classes), w.block)
	}
	for p := 0; p < 50; p++ {
		seen := make(map[int]bool)
		for i := 0; i < 18; i++ {
			seen[w.classAt(p*18+i)] = true
		}
		if len(seen) != 18 {
			t.Fatalf("pass %d sends %d distinct classes, want 18", p, len(seen))
		}
	}
	if got := newMix(shardedMix, 3); got.shards != 8 || got.snapshot {
		t.Errorf("sharded_mix boots with shards=%d snapshot=%v", got.shards, got.snapshot)
	}
	if got := newMix(snapshotMix, 3); got.shards != 0 || !got.snapshot {
		t.Errorf("snapshot_mix boots with shards=%d snapshot=%v", got.shards, got.snapshot)
	}
}

// A correction factor reads the chunks inside the interval and k on
// either side, averages each loop's times and applies the exponents.
func TestHostRefFactor(t *testing.T) {
	var none *hostRef
	if got := none.factor(time.Now(), time.Now(), refNear); got != 1 {
		t.Errorf("factor without a reference = %v, want 1", got)
	}
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	h := &hostRef{}
	// Twenty chunks 100 ms apart: the first ten at nominal speed, the
	// last ten with chase 4× and search 2× slower.
	for i := 0; i < 20; i++ {
		c := refChunk{at(100 * i), refChaseNominalMS * 1e6, refSearchNominalMS * 1e6}
		if i >= 10 {
			c.chase, c.search = 4*c.chase, 2*c.search
		}
		h.chunks = append(h.chunks, c)
	}
	slow := math.Pow(4, refChaseExp) * math.Pow(2, refSearchExp)
	if got := h.factor(at(450), at(480), 4); !near(got, 1) {
		t.Errorf("factor on the quiet half = %v, want 1", got)
	}
	if got := h.factor(at(1450), at(1480), 4); !near(got, 1/slow) {
		t.Errorf("factor on the busy half = %v, want %v", got, 1/slow)
	}
	// [950, 980] holds no chunk: four quiet ones before it, four busy
	// ones after, so each loop's mean is halfway.
	half := math.Pow(2.5, refChaseExp) * math.Pow(1.5, refSearchExp)
	if got := h.factor(at(950), at(980), 4); !near(got, 1/half) {
		t.Errorf("factor across the change = %v, want %v", got, 1/half)
	}
	// [850, 1250] holds chunks 9..12 and reads 5..16: 5 quiet, 7 busy.
	mixed := math.Pow((5+7*4.0)/12, refChaseExp) * math.Pow((5+7*2.0)/12, refSearchExp)
	if got := h.factor(at(850), at(1250), 4); !near(got, 1/mixed) {
		t.Errorf("factor over chunks = %v, want %v", got, 1/mixed)
	}
	// At the edges there is only one side to read.
	if got := h.factor(at(-50), at(-10), 4); !near(got, 1) {
		t.Errorf("factor before the first chunk = %v, want 1", got)
	}
	// With no neighbours asked for, only the chunks inside count.
	if got := h.factor(at(850), at(1250), 0); !near(got, 1/(math.Pow(3.25, refChaseExp)*math.Pow(1.75, refSearchExp))) {
		t.Errorf("factor over chunks 9..12 alone = %v", got)
	}
	real := newHostRef()
	real.burst()
	if len(real.chunks) != refBurst || real.chunks[0].chase <= 0 || real.chunks[0].search <= 0 || !real.chunks[1].start.After(real.chunks[0].start) {
		t.Errorf("burst(2) recorded %v", real.chunks)
	}
}

func TestGroups(t *testing.T) {
	mix := newMix(steadyMix, 1)
	if mix.groups != 18 {
		t.Fatalf("mix has %d groups, want one per class", mix.groups)
	}
	for i, c := range mix.classes {
		if c.group != i {
			t.Errorf("mix class %d is in group %d", i, c.group)
		}
	}
	cold, err := newColdShapes(smallIndex(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.groups != 8 {
		t.Fatalf("cold_shapes has %d groups, want 4 templates × 2 modes", cold.groups)
	}
	perTemplate := make([]int, 4)
	for _, c := range cold.classes {
		if c.group < 0 || c.group >= cold.groups || (c.group%2 == 0) != c.exact {
			t.Fatalf("%s (exact=%v) is in group %d", c.name, c.exact, c.group)
		}
		perTemplate[c.group/2]++
	}
	if !reflect.DeepEqual(perTemplate, coldCounts) {
		t.Errorf("shapes per template %v, want %v", perTemplate, coldCounts)
	}
	medians, typical := groupMedians([][]float64{{1, 3, 2}, nil, {10}})
	if !reflect.DeepEqual(medians, []float64{2, 0, 10}) || !near(typical, 6) {
		t.Errorf("groupMedians = %v, %v; want [2 0 10], 6 (the empty group is left out)", medians, typical)
	}
}

func TestColdShapesAreDistinct(t *testing.T) {
	w, err := newColdShapes(smallIndex(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.classes) != 768 || len(w.order) != 768 {
		t.Fatalf("%d shapes in an order of %d, want 768", len(w.classes), len(w.order))
	}
	keys := make(map[string]bool)
	exact := 0
	for _, c := range w.classes {
		q, err := whirlpool.ParseQuery(c.query)
		if err != nil {
			t.Fatalf("%s does not parse: %v", c.query, err)
		}
		keys[whirlpool.CanonicalQueryKey(q)] = true
		if c.exact {
			exact++
		}
		if c.k != coldK {
			t.Fatalf("%s has k=%d, want %d", c.name, c.k, coldK)
		}
	}
	if len(keys) != 768 {
		t.Errorf("%d distinct canonical keys, want 768", len(keys))
	}
	if exact != 384 {
		t.Errorf("%d exact shapes, want half of 768", exact)
	}
	if w.warmup {
		t.Error("cold_shapes must not warm up")
	}
}

func TestManifestRules(t *testing.T) {
	m := newManifest()
	if err := m.validate(); err != nil {
		t.Fatalf("the harness's own manifest is invalid: %v", err)
	}
	// The committed file is the manifest the harness prints.
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
	// Round trip.
	again, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back manifest
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Error("manifest does not survive a JSON round trip")
	}

	bound := 0.1
	metric := func(name string) manifestMetric { return manifestMetric{Name: name, Unit: "ms", Better: "lower"} }
	gated := func(name string) manifestMetric {
		mm := metric(name)
		mm.Bound = &bound
		return mm
	}
	many := func(n int, mk func(string) manifestMetric) []manifestMetric {
		out := make([]manifestMetric, n)
		for i := range out {
			out[i] = mk(fmt.Sprintf("m%d", i))
		}
		return out
	}
	for what, breakIt := range map[string]func(*manifest){
		"name with a space":     func(m *manifest) { m.PerLayer[0].Name = "core run" },
		"name starting with .":  func(m *manifest) { m.PerLayer[0].Name = ".core" },
		"name of 65 characters": func(m *manifest) { m.PerLayer[0].Name = strings.Repeat("x", 65) },
		"duplicate name":        func(m *manifest) { m.PerLayer[0].Name = m.EndToEnd[0].Name },
		"unit with a space":     func(m *manifest) { m.PerLayer[0].Unit = "per s" },
		"unit of 17 characters": func(m *manifest) { m.PerLayer[0].Unit = strings.Repeat("u", 17) },
		"9 workloads": func(m *manifest) {
			for i := 0; len(m.Workloads) < 9; i++ {
				m.Workloads = append(m.Workloads, manifestLoad{fmt.Sprintf("w%d", i), "why"})
			}
		},
		"1 workload":          func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"17 end-to-end":       func(m *manifest) { m.EndToEnd = append(many(16, gated), m.EndToEnd[3]) },
		"129 per-layer":       func(m *manifest) { m.PerLayer = many(129, metric) },
		"bound above 0.25":    func(m *manifest) { b := 0.3; m.EndToEnd[0].Bound = &b },
		"per-layer bound":     func(m *manifest) { m.PerLayer[0].Bound = &bound },
		"no setup_s":          func(m *manifest) { m.EndToEnd[3].Name = "boot_s" },
		"run_seconds 61":      func(m *manifest) { m.RunSeconds = 61 },
		"why of 201 letters":  func(m *manifest) { m.Workloads[0].Why = strings.Repeat("y", 201) },
		"better is sideways":  func(m *manifest) { m.EndToEnd[0].Better = "sideways" },
		"end-to-end no bound": func(m *manifest) { m.EndToEnd[0].Bound = nil },
	} {
		broken := newManifest()
		breakIt(&broken)
		if err := broken.validate(); err == nil {
			t.Errorf("validate accepted a manifest with %s", what)
		}
	}
	if m.EndToEnd[3].Name != "setup_s" {
		t.Fatalf("test assumes end_to_end[3] is setup_s, it is %s", m.EndToEnd[3].Name)
	}
}

func TestCheckResponse(t *testing.T) {
	cl := &class{name: "c", k: 3, verified: true, want: []float64{3, 2, 2}, wantRoots: map[string]bool{"1.1": true}}
	body := func(answers string) *sample {
		return &sample{status: 200, body: []byte(`{"answers":[` + answers + `]}`)}
	}
	ok := `{"score":3,"dewey":"1.1"},{"score":2,"dewey":"1.2"},{"score":2,"dewey":"1.9"}`
	if _, err := checkResponse(cl, body(ok)); err != nil {
		t.Errorf("correct response rejected: %v", err)
	}
	// A different root at the k-th-score boundary is a legitimate tie.
	tie := `{"score":3,"dewey":"1.1"},{"score":2,"dewey":"1.2"},{"score":2,"dewey":"1.7"}`
	if _, err := checkResponse(cl, body(tie)); err != nil {
		t.Errorf("boundary tie rejected: %v", err)
	}
	for what, s := range map[string]*sample{
		"non-200":          {status: 500, body: []byte(`{"error":"x"}`)},
		"wrong score":      body(`{"score":3,"dewey":"1.1"},{"score":2.5,"dewey":"1.2"},{"score":2,"dewey":"1.9"}`),
		"missing answer":   body(`{"score":3,"dewey":"1.1"},{"score":2,"dewey":"1.2"}`),
		"wrong top root":   body(`{"score":3,"dewey":"1.4"},{"score":2,"dewey":"1.2"},{"score":2,"dewey":"1.9"}`),
		"increasing score": body(`{"score":2,"dewey":"1.2"},{"score":3,"dewey":"1.1"},{"score":2,"dewey":"1.9"}`),
		"too many answers": body(ok + `,{"score":1,"dewey":"2.1"}`),
		"not JSON":         {status: 200, body: []byte(`<html>`)},
	} {
		if _, err := checkResponse(cl, s); err == nil {
			t.Errorf("checkResponse accepted a response with %s", what)
		}
	}
}

// TestSmoke boots the real daemon over a 256 KB corpus and runs every
// workload once in both modes with a window of a few passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots whirlpoold")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	e, err := newEnv(ctx, smallBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, wl := range workloadWhy {
		for _, traced := range []bool{false, true} {
			res, err := e.runOne(wl.name, 1, 300*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, invalid %v, failures %v",
					wl.name, traced, res.attempted, res.failed, res.invalid, res.failures)
			}
			line, err := res.resultLine()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			var parsed struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(res.defs()) {
				t.Errorf("%s traced=%v: result line %s lacks keys or metrics", wl.name, traced, line)
			}
			if !traced {
				for _, d := range endToEnd {
					if res.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.name, res.metrics[d.name])
					}
				}
				continue
			}
			wantHit := 1.0
			if wl.name == coldShapes {
				wantHit = 0
			}
			if got := res.metrics["whirlpoold.engine_cache_hit_ratio"]; got != wantHit {
				t.Errorf("%s: engine cache hit ratio %v, want %v", wl.name, got, wantHit)
			}
			if res.metrics["core.run_ms"] <= 0 || res.metrics["core.matches_created"] <= 0 {
				t.Errorf("%s: replay or daemon counters missing: %v", wl.name, res.metrics)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "spans-"+steadyMix+".jsonl")); err != nil {
		t.Errorf("no span file written: %v", err)
	}
}
