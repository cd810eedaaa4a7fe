package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	whirlpool "repro"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/obs"
)

// The replay mirrors cmd/whirlpoold's handleQuery and engineFor stage
// by stage, in-process and single-threaded, calling the same public
// functions with a span around each call. The types below copy the
// handler's wire types field for field; whirlpoold.unattributed_ms
// (daemon single-client p50 − Σ replay stage medians) is the alarm
// that rings when the two drift apart.

const replayCacheSize = 256 // whirlpoold's defaultCacheSize

type queryRequest struct {
	Query     string `json:"query"`
	K         int    `json:"k"`
	Exact     bool   `json:"exact"`
	Algorithm string `json:"algorithm"`
	TimeoutMS int    `json:"timeout_ms"`
}

type queryAnswer struct {
	Score    float64           `json:"score"`
	Path     string            `json:"path"`
	Dewey    string            `json:"dewey"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

type queryResponse struct {
	Answers      []queryAnswer `json:"answers"`
	ServerOps    int64         `json:"server_ops"`
	Matches      int64         `json:"matches_created"`
	Pruned       int64         `json:"pruned"`
	PrunedRemote int64         `json:"pruned_remote,omitempty"`
	TookMS       float64       `json:"took_ms"`
	Cache        string        `json:"cache"`
}

// Span names, layer-qualified. All but engineBuild are direct children
// of a request's root span, in this order.
const (
	spanRequest     = "request"
	spanDecode      = "whirlpoold.decode"
	spanParse       = "pattern.parse"
	spanPlanHit     = "planner.plan_hit"
	spanPlanMiss    = "planner.plan_miss"
	spanAcquire     = "lru.acquire"
	spanEngineBuild = "core.engine_build" // child of lru.acquire, on a miss
	spanRun         = "core.run"
	spanRender      = "whirlpoold.render"
	spanEncode      = "whirlpoold.encode"
)

// replayEntry is the handler's engineEntry.
type replayEntry struct {
	eng     *whirlpool.Engine
	sharded *whirlpool.ShardedEngine
	q       *whirlpool.Query
}

func (e *replayEntry) run(ctx context.Context) (*whirlpool.Result, error) {
	if e.sharded != nil {
		return e.sharded.RunContext(ctx)
	}
	return e.eng.RunContext(ctx)
}

// replayServer is the handler's server: database (or partition),
// planner and engine cache, configured as the daemon's flags would.
type replayServer struct {
	db      *whirlpool.Database
	sdb     *whirlpool.ShardedDatabase
	planner *whirlpool.Planner
	engines *lru.Cache[string, *replayEntry]
	trace   whirlpool.TraceSink // attached to engines built while set
}

// resetCaches drops every cached plan and engine, as a fresh boot would.
func (s *replayServer) resetCaches() {
	if s.sdb != nil {
		s.planner = s.sdb.NewPlanner(replayCacheSize)
	} else {
		s.planner = s.db.NewPlanner(replayCacheSize)
	}
	s.engines = lru.New[string, *replayEntry](replayCacheSize)
}

// newReplayServer opens the workload's backing in-process. The returned
// close releases a snapshot mapping.
func (e *env) newReplayServer(w *workload) (*replayServer, func(), error) {
	s := &replayServer{db: e.corpus.db}
	closeFn := func() {}
	switch {
	case w.snapshot:
		snap, err := e.snapshot()
		if err != nil {
			return nil, nil, err
		}
		db, err := whirlpool.OpenSnapshot(snap)
		if err != nil {
			return nil, nil, err
		}
		s.db = db
		closeFn = func() { db.Close() }
	case w.shards > 1:
		sdb, err := e.corpus.db.Shard(w.shards)
		if err != nil {
			return nil, nil, err
		}
		s.sdb = sdb
	}
	s.resetCaches()
	return s, closeFn, nil
}

// engineFor is the handler's engineFor: parse → plan → cached engine.
func (s *replayServer) engineFor(rec *recorder, req, root int, qr queryRequest) (*replayEntry, error) {
	opts := whirlpool.Approximate(qr.K)
	if qr.Exact {
		opts.Relax = whirlpool.RelaxNone
	}
	opts.Algorithm = whirlpool.WhirlpoolS
	opts.Trace = s.trace

	sp := rec.begin(spanParse, req, root)
	q, err := whirlpool.ParseQuery(qr.Query)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(spanPlanMiss, req, root)
	plan, planHit, err := s.planner.PlanFor(q, opts.Relax, whirlpool.NormSparse)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if planHit && rec != nil {
		rec.spans[sp].Name = spanPlanHit
	}
	opts.Plan = plan

	key := fmt.Sprintf("%s|k=%d|alg=%d", plan.Key, qr.K, opts.Algorithm)
	sp = rec.begin(spanAcquire, req, root)
	ent, _, err := s.engines.GetOrCreate(key, func() (*replayEntry, error) {
		b := rec.begin(spanEngineBuild, req, sp)
		defer rec.end(b)
		if s.sdb != nil {
			engs, err := s.sdb.NewEngine(q, opts)
			if err != nil {
				return nil, err
			}
			return &replayEntry{sharded: engs, q: plan.Query}, nil
		}
		eng, err := s.db.NewEngine(q, opts)
		if err != nil {
			return nil, err
		}
		return &replayEntry{eng: eng, q: plan.Query}, nil
	})
	rec.end(sp)
	return ent, err
}

// serve is the handler's handleQuery for one pre-marshalled body. The
// encoded response goes to out, which the caller resets.
func (s *replayServer) serve(rec *recorder, req int, body []byte, out *bytes.Buffer) error {
	root := rec.begin(spanRequest, req, -1)
	defer rec.end(root)

	sp := rec.begin(spanDecode, req, root)
	var qr queryRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&qr)
	rec.end(sp)
	if err != nil {
		return err
	}
	if qr.K <= 0 {
		qr.K = 10
	}
	ent, err := s.engineFor(rec, req, root, qr)
	if err != nil {
		return err
	}

	sp = rec.begin(spanRun, req, root)
	res, err := ent.run(context.Background())
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin(spanRender, req, root)
	resp := queryResponse{
		Answers:      make([]queryAnswer, 0, len(res.Answers)),
		ServerOps:    res.Stats.ServerOps,
		Matches:      res.Stats.MatchesCreated,
		Pruned:       res.Stats.Pruned,
		PrunedRemote: res.Stats.PrunedRemote,
		TookMS:       float64(res.Stats.Duration.Microseconds()) / 1000,
		Cache:        "hit",
	}
	for _, a := range res.Answers {
		qa := queryAnswer{
			Score:    a.Score,
			Path:     a.Root.Path(),
			Dewey:    a.Root.ID.String(),
			Bindings: map[string]string{},
		}
		for id, b := range a.Bindings {
			if b == nil || id == 0 {
				continue
			}
			qa.Bindings[strconv.Itoa(id)+":"+ent.q.Nodes[id].Tag] = b.ID.String()
		}
		resp.Answers = append(resp.Answers, qa)
	}
	rec.end(sp)

	sp = rec.begin(spanEncode, req, root)
	err = json.NewEncoder(out).Encode(resp)
	rec.end(sp)
	return err
}

// countSink is the TraceSink of the instrumented pass: it keeps only
// the peak queue depth and the number of threshold rises of the run in
// progress. Sharded engines emit from several goroutines.
type countSink struct {
	mu         sync.Mutex
	peakDepth  int
	thresholds int
}

func (c *countSink) RunStart(obs.RunInfo)              {}
func (c *countSink) RouteDecision(int64, int)          {}
func (c *countSink) MatchLifecycle(obs.Lifecycle, int) {}
func (c *countSink) RunEnd(obs.RunSummary)             {}

func (c *countSink) Threshold(float64) {
	c.mu.Lock()
	c.thresholds++
	c.mu.Unlock()
}

func (c *countSink) QueueDepth(_, depth int) {
	c.mu.Lock()
	if depth > c.peakDepth {
		c.peakDepth = depth
	}
	c.mu.Unlock()
}

// take returns and clears the counts.
func (c *countSink) take() (peak, thresholds int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	peak, thresholds = c.peakDepth, c.thresholds
	c.peakDepth, c.thresholds = 0, 0
	return peak, thresholds
}

// replayStats is what the replay hands to the per-layer report.
type replayStats struct {
	// stage[name] is the mean over classes of the per-class median
	// duration of that span, in nanoseconds — the expected cost per
	// request of the workload. Spans seen only while caches fill
	// (plan_miss and engine_build on a mix) are the mean of what was
	// seen.
	stage map[string]float64
	// classSum[class] is Σ of the class's stage medians over the spans
	// directly under its request span, in milliseconds.
	classSum map[int]float64

	// tracedMS and untracedMS are the summed request times of the
	// traced and the untraced passes, which cover the same classes
	// equally often: their ratio is what recording spans costs.
	tracedMS, untracedMS float64

	serverOps, joinComparisons float64 // per request
	runNS                      float64 // Σ core.run time, for ns_per_server_op
	totalServerOps             float64

	canonicalKeyUS                 float64 // CanonicalQueryKey alone; PlanFor pays it again inside plan_*
	allocsPerRun, bytesPerRun      float64
	peakQueueDepth, thresholdRises float64
	seedMS, stepMS, finishMS       float64
}

// replayClasses is the part of the request sequence one replay pass
// walks: the p-th permutation of a mix, the first 256 shapes of
// cold_shapes.
func replayClasses(w *workload, pass int) []int {
	if w.warmup {
		n := len(w.classes)
		start := (pass * n) % len(w.order)
		return w.order[start : start+n]
	}
	return w.order[:min(256, len(w.order))]
}

// replay runs the traced and untraced passes and the three
// instrumented passes, and writes the spans to spansPath.
func (e *env) replay(w *workload, budget time.Duration, spansPath string) (*replayStats, error) {
	s, closeFn, err := e.newReplayServer(w)
	if err != nil {
		return nil, err
	}
	defer closeFn()

	rec := newRecorder()
	var out bytes.Buffer
	reqClass := []int{}  // request id → class
	measured := []bool{} // request id → counts toward stage medians
	// doPass serves one pass and returns its summed request time in ms.
	doPass := func(rec *recorder, pass int, count bool) (float64, error) {
		if !w.warmup {
			s.resetCaches()
		}
		total := 0.0
		for _, ci := range replayClasses(w, pass) {
			req := len(reqClass)
			reqClass = append(reqClass, ci)
			measured = append(measured, count)
			out.Reset()
			t0 := time.Now()
			if err := s.serve(rec, req, w.classes[ci].body, &out); err != nil {
				return 0, fmt.Errorf("replay %s: %w", w.classes[ci].name, err)
			}
			total += float64(time.Since(t0)) / 1e6
		}
		return total, nil
	}

	pass := 0
	if w.warmup {
		// The caches fill exactly as the daemon's do in its warm-up
		// pass; plan misses and engine builds are observed here.
		if _, err := doPass(rec, pass, false); err != nil {
			return nil, err
		}
		pass++
	}
	start := time.Now()
	st := &replayStats{}
	for rounds := 0; rounds < 5 && (rounds < 1 || time.Since(start) < budget); rounds++ {
		t, err := doPass(rec, pass, true)
		if err != nil {
			return nil, err
		}
		u, err := doPass(nil, pass+1, false)
		if err != nil {
			return nil, err
		}
		st.tracedMS += t
		st.untracedMS += u
		pass += 2
	}
	st.aggregate(rec.spans, reqClass, measured)
	if err := rec.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	if err := e.instrumentedPasses(w, s, st, pass); err != nil {
		return nil, err
	}
	return st, nil
}

// aggregate folds the spans into per-stage and per-class figures.
func (st *replayStats) aggregate(spans []span, reqClass []int, measured []bool) {
	type key struct {
		class int
		name  string
	}
	byClass := make(map[key][]float64)
	fillOnly := make(map[string][]float64) // spans of unmeasured (cache-filling) requests
	topLevel := make(map[string]bool)
	for _, sp := range spans {
		if sp.Name == spanRequest {
			continue
		}
		d := float64(sp.End - sp.Start)
		if !measured[sp.Req] {
			fillOnly[sp.Name] = append(fillOnly[sp.Name], d)
			continue
		}
		byClass[key{reqClass[sp.Req], sp.Name}] = append(byClass[key{reqClass[sp.Req], sp.Name}], d)
		if spans[sp.Parent].Name == spanRequest {
			topLevel[sp.Name] = true
		}
	}
	st.stage = make(map[string]float64)
	st.classSum = make(map[int]float64)
	perStage := make(map[string][]float64)
	for k, ds := range byClass {
		m := median(ds)
		perStage[k.name] = append(perStage[k.name], m)
		if topLevel[k.name] {
			st.classSum[k.class] += m / 1e6
		}
	}
	for name, ms := range perStage {
		st.stage[name] = mean(ms)
	}
	for name, ds := range fillOnly {
		if _, seen := st.stage[name]; !seen {
			st.stage[name] = mean(ds)
		}
	}
}

// instrumentedClasses caps how many classes the instrumented passes
// walk: enough shapes of cold_shapes to average over its templates
// without tripling the replay's run time.
const instrumentedClasses = 64

// instrumentedPasses measures what a timed pass must not: allocation
// per engine run (MemStats reads stop the world), the engine's own
// trace events (a sink slows the run), and the Seed/Step/Finish split
// of a single-engine run driven by one worker.
func (e *env) instrumentedPasses(w *workload, s *replayServer, st *replayStats, pass int) error {
	classes := replayClasses(w, pass)
	if len(classes) > instrumentedClasses {
		classes = classes[:instrumentedClasses]
	}
	n := float64(len(classes))
	ctx := context.Background()

	// Pass 1: engine counters, allocation per run. Entries come from
	// the server's cache exactly as in a timed pass.
	if !w.warmup {
		s.resetCaches()
	}
	entries := make([]*replayEntry, len(classes))
	ks := make([]int, len(classes))
	var ms0, ms1 runtime.MemStats
	for i, ci := range classes {
		var qr queryRequest
		if err := json.Unmarshal(w.classes[ci].body, &qr); err != nil {
			return err
		}
		q, err := whirlpool.ParseQuery(qr.Query)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_ = whirlpool.CanonicalQueryKey(q)
		st.canonicalKeyUS += float64(time.Since(t0)) / 1e3 / n
		ent, err := s.engineFor(nil, 0, 0, qr)
		if err != nil {
			return err
		}
		entries[i], ks[i] = ent, qr.K
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		res, err := ent.run(ctx)
		took := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		st.allocsPerRun += float64(ms1.Mallocs-ms0.Mallocs) / n
		st.bytesPerRun += float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
		st.serverOps += float64(res.Stats.ServerOps) / n
		st.joinComparisons += float64(res.Stats.JoinComparisons) / n
		st.totalServerOps += float64(res.Stats.ServerOps)
		st.runNS += float64(took)
	}

	// Pass 2: Seed/Step/Finish on one worker. Sharded engines own their
	// scheduling, so the split exists for single engines only.
	if s.sdb == nil {
		for i, ent := range entries {
			shared := core.NewSharedTopK(ks[i], 0)
			pr, err := ent.eng.NewParallelRun(ctx, shared, 0)
			if err != nil {
				return err
			}
			t0 := time.Now()
			pr.Seed()
			t1 := time.Now()
			ws := core.NewScratch()
			for !pr.IsDone() {
				pr.Step(ws, 32)
			}
			t2 := time.Now()
			if _, err := pr.Finish(); err != nil {
				return err
			}
			_ = shared.Answers()
			t3 := time.Now()
			st.seedMS += float64(t1.Sub(t0)) / 1e6 / n
			st.stepMS += float64(t2.Sub(t1)) / 1e6 / n
			st.finishMS += float64(t3.Sub(t2)) / 1e6 / n
		}
	}

	// Pass 3: fresh engines with a counting sink attached.
	sink := &countSink{}
	s.trace = sink
	s.resetCaches()
	defer func() { s.trace = nil }()
	for _, ci := range classes {
		var qr queryRequest
		if err := json.Unmarshal(w.classes[ci].body, &qr); err != nil {
			return err
		}
		ent, err := s.engineFor(nil, 0, 0, qr)
		if err != nil {
			return err
		}
		if _, err := ent.run(ctx); err != nil {
			return err
		}
		peak, rises := sink.take()
		st.peakQueueDepth += float64(peak) / n
		st.thresholdRises += float64(rises) / n
	}
	return nil
}
