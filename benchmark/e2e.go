package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupBoots is how many times a run boots the daemon; setup_s is the
// median, so one slow spawn does not move it.
const setupBoots = 3

// env is what every run of one invocation shares: the built daemon,
// the generated corpus and the scratch directory they live in.
type env struct {
	ctx    context.Context
	outDir string // benchmark/out: daemon stderr, spans, the daemon binary
	tmpDir string // removed on exit: corpus and snapshot
	bin    string
	corpus *corpus
	client *http.Client
	// samplesPath, when set, receives one line per request of every
	// measured window (the -samples flag; material for noise studies).
	samplesPath string

	snapPath  string
	snapWrite time.Duration

	layerStats *layerStats // memoized by layers
}

// newEnv builds the daemon from source and generates the corpus.
func newEnv(ctx context.Context, targetBytes int) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.bin, err = buildDaemon(ctx, root, e.outDir); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, err
	}
	if e.corpus, err = newCorpus(e.tmpDir, targetBytes); err != nil {
		e.close()
		return nil, err
	}
	e.client = newClient()
	return e, nil
}

// close removes the temporary corpus and snapshot.
func (e *env) close() { os.RemoveAll(e.tmpDir) }

// snapshot writes the corpus snapshot on first use.
func (e *env) snapshot() (string, error) {
	if e.snapPath == "" {
		var err error
		if e.snapPath, e.snapWrite, err = e.corpus.writeSnapshot(e.tmpDir); err != nil {
			return "", err
		}
	}
	return e.snapPath, nil
}

// daemonArgs are the flags the workload boots whirlpoold with.
func (e *env) daemonArgs(w *workload) ([]string, error) {
	if w.snapshot {
		snap, err := e.snapshot()
		if err != nil {
			return nil, err
		}
		return []string{"-snapshot", snap}, nil
	}
	args := []string{"-file", e.corpus.xmlPath}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	return args, nil
}

// tally accumulates attempted and failed requests across the phases of
// a run, keeping the first few failure messages.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, err.Error())
	}
}

// sendAll sends the given classes once each on one connection and
// checks every answer; it is both the warm-up pass and the
// before-timing verification.
func (e *env) sendAll(d *daemon, w *workload, classes []int, t *tally) {
	for _, ci := range classes {
		cl := &w.classes[ci]
		s := sample{class: ci}
		s.status, s.body, s.err = post(e.ctx, d.client, d.base+"/query", cl.body)
		t.attempted++
		if _, err := checkResponse(cl, &s); err != nil {
			t.fail(err)
		}
	}
}

// boot spawns the daemon for w and brings it to the state the window
// starts from: healthy, and for a warm workload with every class
// answered (and verified) once. The returned duration is setup_s: spawn
// → /healthz 200 → warm-up answered; it excludes go build and corpus
// generation.
func (e *env) boot(w *workload, t *tally) (*daemon, time.Duration, error) {
	args, err := e.daemonArgs(w)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(e.ctx, e.bin, args, filepath.Join(e.outDir, "daemon-"+w.name+".stderr"), e.client)
	if err != nil {
		return nil, 0, err
	}
	if w.warmup {
		all := make([]int, len(w.classes))
		for i := range all {
			all[i] = i
		}
		e.sendAll(d, w, all, t)
	}
	return d, time.Since(start), nil
}

// loadavg reads the 1-minute load average; -1 where /proc has none.
func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// thirdsSpread is the noise guard's in-window signal: the window is cut
// into thirds by send time and the spread of the serving time per
// request across them returned as a share of the whole window's.
func thirdsSpread(win *window) float64 {
	var busy, n [3]float64
	third := float64(win.wall) / 3
	for _, s := range win.samples {
		i := min(int(float64(s.startNS)/third), 2)
		busy[i] += float64(s.latNS)
		n[i]++
	}
	lo, hi := busy[0]/n[0], busy[0]/n[0]
	for i := 1; i < 3; i++ {
		lo, hi = min(lo, busy[i]/n[i]), max(hi, busy[i]/n[i])
	}
	return (hi - lo) / (float64(win.busy) / float64(len(win.samples)))
}

// checkWindow validates every stored response of a window and returns
// the parsed bodies (nil where the request failed).
func checkWindow(w *workload, win *window, t *tally) []*answerBody {
	bodies := make([]*answerBody, len(win.samples))
	for i := range win.samples {
		s := &win.samples[i]
		t.attempted++
		body, err := checkResponse(&w.classes[s.class], s)
		if err != nil {
			t.fail(err)
			continue
		}
		bodies[i] = body
	}
	return bodies
}

// verifySample sends, after the window, the verified classes of a
// workload that has no warm-up pass (sending them earlier would seed
// the caches the workload exists to miss).
func (e *env) verifySample(d *daemon, w *workload, t *tally) {
	if w.warmup {
		return
	}
	var classes []int
	for i := range w.classes {
		if w.classes[i].verified {
			classes = append(classes, i)
		}
	}
	e.sendAll(d, w, classes, t)
}

// cacheAssumption checks what the workload is built on: a mix never
// misses the engine cache inside the window, cold_shapes never hits
// either cache.
func cacheAssumption(w *workload, before, after *metricSet) []string {
	var out []string
	hits := delta(before, after, "whirlpoold_engine_cache_hits_total")
	misses := delta(before, after, "whirlpoold_engine_cache_misses_total")
	planHits := delta(before, after, "whirlpoold_plan_cache_hits_total")
	if w.warmup && misses != 0 {
		out = append(out, fmt.Sprintf("%d engine-cache misses inside a warm window", misses))
	}
	if !w.warmup && (hits != 0 || planHits != 0) {
		out = append(out, fmt.Sprintf("%d engine-cache and %d plan-cache hits on a workload built to miss", hits, planHits))
	}
	return out
}

// runEndToEnd measures one workload with tracing off: setupBoots boots
// for setup_s, then a closed-loop window of dur against the last one.
// Every time is corrected by the host reference (hostref.go): a boot by
// the chunks run just before and after it, a request by the chunks on
// either side of it in the window. The uncorrected figures are printed
// beside them.
func (e *env) runEndToEnd(w *workload, dur time.Duration) (*result, error) {
	res := &result{workload: w.name, metrics: make(map[string]float64)}
	var t tally
	var d *daemon
	ref := newHostRef()
	var setups, rawSetups []float64
	for i := 0; i < setupBoots; i++ {
		if d != nil {
			d.stop()
		}
		ref.burst()
		from := time.Now()
		var took time.Duration
		var err error
		if d, took, err = e.boot(w, &t); err != nil {
			return nil, err
		}
		to := time.Now()
		ref.burst()
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()*ref.factor(from, to, refBurst))
	}
	defer d.stop()

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	loadBefore := loadavg()
	win, err := runWindow(e.ctx, d, w, dur, 0, ref)
	if err != nil {
		return nil, err
	}
	loadAfter := loadavg()
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	res.invalid = cacheAssumption(w, before, after)
	bodies := checkWindow(w, win, &t)
	e.verifySample(d, w, &t)

	// Latencies of correct responses, corrected and raw, by group.
	byGroup := make([][]float64, w.groups)
	rawByGroup := make([][]float64, w.groups)
	group := make([]int, 0, len(win.samples))
	lat := make([]float64, 0, len(win.samples))
	var sum, rawSum, ops float64
	for i, s := range win.samples {
		if bodies[i] == nil {
			continue
		}
		ops += float64(bodies[i].ServerOps)
		from := win.start.Add(time.Duration(s.startNS))
		raw := float64(s.latNS) / 1e6
		ms := raw * ref.factor(from, from.Add(time.Duration(s.latNS)), refNear)
		g := w.classes[s.class].group
		byGroup[g] = append(byGroup[g], ms)
		rawByGroup[g] = append(rawByGroup[g], raw)
		group = append(group, g)
		lat = append(lat, ms)
		sum += ms
		rawSum += raw
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: the window has no correct response", w.name)
	}
	if err := e.writeSamples(w, win, ref); err != nil {
		return nil, err
	}
	// tail_ratio pools every latency as a multiple of its group's median.
	medians, typical := groupMedians(byGroup)
	_, rawTypical := groupMedians(rawByGroup)
	rel := make([]float64, len(lat))
	for i := range lat {
		rel[i] = lat[i] / medians[group[i]]
	}
	sort.Float64s(rel)
	res.metrics["qps"] = 1e3 * float64(len(lat)) / sum
	res.metrics["p50_ms"] = typical
	res.metrics["tail_ratio"] = percentile(rel, tailPercentile)
	res.metrics["setup_s"] = median(setups)
	res.metrics["peak_rss_mb"] = rss
	res.metrics["raw_qps"] = 1e3 * float64(len(lat)) / rawSum
	res.metrics["raw_p50_ms"] = rawTypical
	res.metrics["raw_setup_s"] = median(rawSetups)
	res.metrics["host_speed"] = ref.factor(win.start, win.start.Add(win.wall), 0)
	res.metrics["server_ops_per_request"] = ops / float64(len(lat))
	res.metrics["window_s"] = win.wall.Seconds()
	res.metrics["samples"] = float64(len(lat))

	spread := thirdsSpread(win)
	chase, search := ref.medianMS()
	res.notes = append(res.notes, fmt.Sprintf(
		"%d samples in %.2fs (%.2fs serving), %d beyond p%d; %d reference chunks, median chase %.2f ms (nominal %.2f), search %.2f ms (nominal %.2f); loadavg %.2f→%.2f; serving time per request spread across thirds %.1f%%; setup boots %.3f s",
		len(lat), win.wall.Seconds(), win.busy.Seconds(), len(lat)*(100-tailPercentile)/100, tailPercentile,
		len(ref.chunks), chase, refChaseNominalMS, search, refSearchNominalMS, loadBefore, loadAfter, 100*spread, rawSetups))
	if spread > 0.10 || loadBefore > float64(runtime.NumCPU()) {
		res.notes = append(res.notes, "NOISY window: the host was busy or its speed drifted; the raw_ figures moved with it")
	}
	res.attempted, res.failed, res.failures = t.attempted, t.failed, t.failures
	return res, nil
}

// tailPercentile is the percentile tail_ratio reads: the highest with
// ten samples beyond it in every window (the slowest workload answers
// ≈ 300 requests in one).
const tailPercentile = 90

// groupMedians returns every group's median, indexed like byGroup, and
// their mean over the groups that have samples — the expected median
// latency of a request drawn from the workload.
func groupMedians(byGroup [][]float64) (medians []float64, typical float64) {
	medians = make([]float64, len(byGroup))
	var seen []float64
	for g, v := range byGroup {
		if len(v) > 0 {
			medians[g] = median(v)
			seen = append(seen, medians[g])
		}
	}
	return medians, mean(seen)
}

// writeSamples appends the window's requests to samplesPath, one line
// each: workload, sequence number, group, send time and latency in ms,
// and the mean chase and search times in ms of the reference chunks
// near it — what the exponents in hostref.go are fitted on.
func (e *env) writeSamples(w *workload, win *window, ref *hostRef) error {
	if e.samplesPath == "" {
		return nil
	}
	f, err := os.OpenFile(e.samplesPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	for _, s := range win.samples {
		from := win.start.Add(time.Duration(s.startNS))
		chase, search := ref.near(from, from.Add(time.Duration(s.latNS)), refNear)
		fmt.Fprintf(f, "%s %d %d %.3f %.3f %.3f %.3f\n", w.name, s.seq, w.classes[s.class].group,
			float64(s.startNS)/1e6, float64(s.latNS)/1e6, chase, search)
	}
	return f.Close()
}
