package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/obs"
)

// defaultCacheSize bounds the engine and plan caches when the -cache
// flag (or serverOptions) does not say otherwise.
const defaultCacheSize = 256

// server routes HTTP requests to a shared database. Engines are cached
// per (query, options) signature so repeated queries skip plan and
// scorer construction. The cache is LRU-bounded and builds entries
// outside any server-wide lock: a slow engine construction only ever
// blocks requests for the same cache key (per-key singleflight), never
// the rest of the serving path.
type server struct {
	db    *whirlpool.Database
	roots int // the document's forest roots, for /stats
	// sdb, when non-nil, routes every /query through sharded execution:
	// each engine's root ranges run on a bounded worker pool,
	// min(GOMAXPROCS, shards) goroutines, against a shared top-k set.
	sdb       *whirlpool.ShardedDatabase
	mux       *http.ServeMux
	reg       *obs.Registry
	started   time.Time
	accessLog *log.Logger // nil disables access logging

	engines *lru.Cache[string, *engineEntry]
	// planner compiles and caches query plans keyed on the canonical
	// query shape; engine cache keys derive from plan keys, so textual
	// variants of one query share both the plan and the engine.
	planner *whirlpool.Planner

	// qm holds the metric handles a /query request touches.
	qm queryMetrics
	// panics counts handler panics answered with 500 (see dispatch).
	panics *obs.Counter

	// buildHook, when non-nil, runs inside every engine construction, outside all server locks. Test seam: the contention
	// tests block it to prove builds do not stall unrelated requests.
	buildHook func()
}

// queryMetrics are the registry handles of the /query path, resolved
// once in newServer: a by-name lookup takes the registry's lock and
// builds a label key, ten times a request.
type queryMetrics struct {
	ok                                       *obs.Counter // http_requests_total{endpoint="query",code="200"}
	latency, responseBytes                   *obs.Histogram
	cacheHits, cacheMisses, timeouts         *obs.Counter
	planHits, planMisses                     *obs.Counter
	serverOps, created, pruned, prunedRemote *obs.Counter
	runDuration, planning                    *obs.Histogram
}

func newQueryMetrics(reg *obs.Registry) queryMetrics {
	return queryMetrics{
		ok:            reg.Counter("whirlpoold_http_requests_total", "endpoint", "query", "code", "200"),
		latency:       reg.Histogram("whirlpoold_http_request_duration_us", "endpoint", "query"),
		responseBytes: reg.Histogram("whirlpoold_http_response_bytes", "endpoint", "query"),
		cacheHits:     reg.Counter("whirlpoold_engine_cache_hits_total"),
		cacheMisses:   reg.Counter("whirlpoold_engine_cache_misses_total"),
		timeouts:      reg.Counter("whirlpoold_query_timeouts_total"),
		planHits:      reg.Counter("whirlpoold_plan_cache_hits_total"),
		planMisses:    reg.Counter("whirlpoold_plan_cache_misses_total"),
		serverOps:     reg.Counter("whirlpoold_engine_server_ops_total"),
		created:       reg.Counter("whirlpoold_engine_matches_created_total"),
		pruned:        reg.Counter("whirlpoold_engine_matches_pruned_total"),
		prunedRemote:  reg.Counter("whirlpoold_engine_pruned_remote_total"),
		runDuration:   reg.Histogram("whirlpoold_query_duration_us"),
		planning:      reg.Histogram("whirlpoold_planning_duration_us"),
	}
}

// engineEntry is one cached (query, options) signature: the prepared
// engine — single or sharded, exactly one is set — and the encoded
// "nodeID:tag" keys its responses key bindings by, in encoding order,
// built once here rather than once per binding per answer per request.
type engineEntry struct {
	key      string
	eng      *whirlpool.Engine
	sharded  *whirlpool.ShardedEngine
	bindings []bindingKey
}

func newEngineEntry(key string, q *whirlpool.Query) *engineEntry {
	return &engineEntry{key: key, bindings: bindingKeys(q)}
}

// run evaluates the entry's query on the embedded core engine: its
// answers are ordinals, rendered straight from the document's columns,
// so no request builds the node slab.
func (e *engineEntry) run(ctx context.Context) (*core.Result, error) {
	if e.sharded != nil {
		return e.sharded.Engines.RunContext(ctx)
	}
	return e.eng.Engine.RunContext(ctx)
}

// totals is the entry's cumulative instrumentation; a sharded engine
// records each evaluation as one run, its counters summed over shards.
func (e *engineEntry) totals() whirlpool.EngineTotals {
	if e.sharded != nil {
		return e.sharded.Totals()
	}
	return e.eng.Totals()
}

// rootVia is the entry's root access path, one for every shard.
func (e *engineEntry) rootVia() string {
	if e.sharded != nil {
		return e.sharded.RootVia()
	}
	return e.eng.RootVia()
}

// serverOptions configures newServer.
type serverOptions struct {
	// CacheSize bounds each LRU cache (engines, plans);
	// 0 means defaultCacheSize.
	CacheSize int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog *log.Logger
	// Shards above 1 evaluates every /query in that many shards, ranges
	// of its roots: min(GOMAXPROCS, Shards) workers each claim a whole
	// shard at a time and drive its run to done, all pruning against a
	// shared top-k set.
	Shards int
	// Boot is how long booting the database took: whirlpool.OpenSnapshot
	// for a snapshot-backed one, recorded into the
	// whirlpoold_snapshot_open_us histogram, and the build — parse
	// through synopsis — otherwise, into whirlpoold_load_us, so either
	// cold start is visible on /metrics.
	Boot time.Duration
}

func newServer(db *whirlpool.Database, opts serverOptions) (*server, error) {
	if opts.CacheSize <= 0 {
		opts.CacheSize = defaultCacheSize
	}
	s := &server{
		db:        db,
		roots:     db.Columns().Roots(),
		mux:       http.NewServeMux(),
		reg:       obs.NewRegistry(),
		started:   time.Now(),
		accessLog: opts.AccessLog,
		engines:   lru.New[string, *engineEntry](opts.CacheSize),
	}
	if opts.Shards > 1 {
		sdb, err := db.Shard(opts.Shards)
		if err != nil {
			return nil, err
		}
		sdb.ObserveInto(s.reg)
		s.sdb = sdb
		s.planner = sdb.NewPlanner(opts.CacheSize)
	} else {
		s.planner = db.NewPlanner(opts.CacheSize)
	}
	// Resolved here, the /query metrics are also on /metrics (at zero)
	// from boot, not from the first request.
	s.qm = newQueryMetrics(s.reg)
	s.panics = s.reg.Counter("whirlpoold_panics_total")
	boot := "whirlpoold_load_us"
	if db.SnapshotBacked() {
		boot = "whirlpoold_snapshot_open_us"
	}
	s.reg.Histogram(boot).Observe(opts.Boot.Microseconds())
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/query", s.handleQuery)
	return s, nil
}

// reqInfo carries per-request annotations from handlers back to the
// access-log middleware.
type reqInfo struct {
	cache string // "hit", "miss" or "-" (endpoint has no cache)
}

type reqInfoKey struct{}

// requestInfo returns the request's annotation record (always present
// under ServeHTTP; a fresh throwaway otherwise, so handlers stay usable
// in isolation).
func requestInfo(r *http.Request) *reqInfo {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{cache: "-"}
}

// statusWriter captures the response status and size for metrics and
// access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool // the status line is on the wire
}

func (w *statusWriter) WriteHeader(status int) {
	w.status, w.wrote = status, true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// endpointLabel maps a request path onto a bounded label set so metric
// cardinality cannot grow with traffic.
func endpointLabel(path string) string {
	switch path {
	case "/healthz", "/stats", "/metrics", "/query":
		return strings.TrimPrefix(path, "/")
	default:
		return "other"
	}
}

// ServeHTTP dispatches to the mux wrapped in the observability
// middleware: per-endpoint request counters and latency/size
// histograms, plus one structured access-log line per request — a
// request whose handler panicked included.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ri := &reqInfo{cache: "-"}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.dispatch(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))

	elapsed := time.Since(start)
	if endpoint := endpointLabel(r.URL.Path); endpoint == "query" && sw.status == http.StatusOK {
		s.qm.ok.Inc()
		s.qm.latency.Observe(elapsed.Microseconds())
		s.qm.responseBytes.Observe(sw.bytes)
	} else {
		s.reg.Counter("whirlpoold_http_requests_total",
			"endpoint", endpoint, "code", strconv.Itoa(sw.status)).Inc()
		s.reg.Histogram("whirlpoold_http_request_duration_us", "endpoint", endpoint).
			Observe(elapsed.Microseconds())
		s.reg.Histogram("whirlpoold_http_response_bytes", "endpoint", endpoint).
			Observe(sw.bytes)
	}
	if s.accessLog != nil {
		line, err := json.Marshal(map[string]any{
			"time":   start.UTC().Format(time.RFC3339Nano),
			"method": r.Method,
			"path":   r.URL.Path,
			"status": sw.status,
			"dur_ms": float64(elapsed.Microseconds()) / 1000,
			"bytes":  sw.bytes,
			"cache":  ri.cache,
			"remote": r.RemoteAddr,
		})
		if err == nil {
			s.accessLog.Printf("%s", line)
		}
	}
}

// dispatch runs the mux. A panicking handler costs its own request a
// 500 — counted, logged with its stack, and still metered and
// access-logged by ServeHTTP — instead of the connection; net/http's
// own abort signal passes through.
func (s *server) dispatch(sw *statusWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.panics.Inc()
		log.Printf("whirlpoold: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
		if sw.wrote {
			sw.status = http.StatusInternalServerError // too late for the client; the log and metrics still say so
			return
		}
		http.Error(sw, "internal server error", http.StatusInternalServerError)
	}()
	s.mux.ServeHTTP(sw, r)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// engineStats is one engine's cumulative instrumentation in /stats.
type engineStats struct {
	Key             string `json:"key"`
	Runs            int64  `json:"runs"`
	Aborted         int64  `json:"aborted,omitempty"`
	ServerOps       int64  `json:"server_ops"`
	JoinComparisons int64  `json:"join_comparisons"`
	MatchesCreated  int64  `json:"matches_created"`
	// RootVia is the root server's access path, "scan" or
	// "postings:<tag>"; Roots is how many roots it has produced.
	RootVia      string  `json:"root_via,omitempty"`
	Roots        int64   `json:"roots"`
	Pruned       int64   `json:"pruned"`
	PrunedRemote int64   `json:"pruned_remote,omitempty"`
	TotalMS      float64 `json:"total_ms"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	planStats := s.planner.Stats()
	memo := planStats.Predicates
	engines := make([]engineStats, 0, s.engines.Len())
	for _, it := range s.engines.Items() {
		tot := it.Value.totals()
		es := engineStats{
			Key:             it.Key,
			RootVia:         it.Value.rootVia(),
			Runs:            tot.Runs,
			Aborted:         tot.Aborted,
			ServerOps:       tot.ServerOps,
			JoinComparisons: tot.JoinComparisons,
			MatchesCreated:  tot.MatchesCreated,
			Roots:           tot.Roots,
			Pruned:          tot.Pruned,
			PrunedRemote:    tot.PrunedRemote,
			TotalMS:         float64(tot.Duration.Microseconds()) / 1000,
		}
		engines = append(engines, es)
	}
	stats := map[string]any{
		"nodes":    s.db.Size(),
		"roots":    s.roots,
		"snapshot": s.db.SnapshotBacked(),
		"uptime_s": time.Since(s.started).Seconds(),
		"cache": map[string]any{
			"engines": map[string]int{"len": s.engines.Len(), "cap": s.engines.Cap()},
			"plans": map[string]int64{
				"len": int64(planStats.Len), "cap": int64(planStats.Cap),
				"hits": planStats.Hits, "misses": planStats.Misses, "evictions": planStats.Evictions,
			},
			"predicates": map[string]int64{ // the statistics memo: a miss is a posting walk
				"len": int64(memo.Len), "cap": int64(memo.Cap),
				"hits": memo.Hits, "misses": memo.Walks, "evictions": memo.Evictions,
			},
		},
		"engines": engines,
	}
	if s.sdb != nil {
		stats["sharding"] = map[string]any{"shards": s.sdb.Shards()}
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleMetrics serves the registry: JSON by default, Prometheus text
// exposition with ?format=prometheus (or an Accept header preferring
// text/plain).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("whirlpoold_engine_cache_entries").Set(int64(s.engines.Len()))
	ps := s.planner.Stats()
	s.reg.Gauge("whirlpoold_plan_cache_entries").Set(int64(ps.Len))
	s.reg.Gauge("whirlpoold_plan_cache_evictions").Set(ps.Evictions)
	s.reg.Gauge("whirlpoold_stats_memo_hits_total").Set(ps.Predicates.Hits)
	s.reg.Gauge("whirlpoold_stats_memo_misses_total").Set(ps.Predicates.Walks)
	s.reg.Gauge("whirlpoold_stats_memo_entries").Set(int64(ps.Predicates.Len))
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.started).Seconds(),
		"metrics":  s.reg.Snapshot(),
	})
}

func wantsPrometheus(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "prometheus" || f == "prom" || f == "text"
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// queryRequest is the POST /query payload.
type queryRequest struct {
	Query     string `json:"query"`
	K         int    `json:"k"`
	Exact     bool   `json:"exact"`
	Algorithm string `json:"algorithm"`
	TimeoutMS int    `json:"timeout_ms"`
}

// queryAnswer is one result row. Bindings are keyed "nodeID:tag" — the
// query-node ID disambiguates two nodes with the same tag (e.g.
// /a[./b and .//b]), which a tag-only key would silently collapse.
// queryAnswer and queryResponse are the /query wire format;
// engineEntry.appendResponse writes their encoding directly.
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

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New("query is required"))
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	ent, hit, err := s.engineFor(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, lru.ErrBuildPanicked) { // we waited on another request's build
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	ri := requestInfo(r)
	if hit {
		ri.cache = "hit"
		s.qm.cacheHits.Inc()
	} else {
		ri.cache = "miss"
		s.qm.cacheMisses.Inc()
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := ent.run(ctx)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusGatewayTimeout
			s.qm.timeouts.Inc()
		}
		writeError(w, status, err)
		return
	}
	// Cumulative engine-side measures (the paper's Figures 6–7 and
	// Table 2 counters), live per process.
	s.qm.serverOps.Add(res.Stats.ServerOps)
	s.qm.created.Add(res.Stats.MatchesCreated)
	s.qm.pruned.Add(res.Stats.Pruned)
	s.qm.prunedRemote.Add(res.Stats.PrunedRemote)
	s.qm.runDuration.Observe(res.Stats.Duration.Microseconds())

	bp := responseBufs.Get().(*[]byte)
	body := ent.appendResponse((*bp)[:0], s.db.Columns(), res, ri.cache)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is the client's loss; the status is already out
	if cap(body) <= maxPooledResponse {
		*bp = body
		responseBufs.Put(bp)
	}
}

// engineFor returns a cached engine for the request signature, building
// it on a miss. Construction happens outside any server-wide lock:
// concurrent requests for the same signature share one build, requests
// for other signatures (and cached ones) proceed immediately.
func (s *server) engineFor(req queryRequest) (*engineEntry, bool, error) {
	if req.K > maxK {
		return nil, false, fmt.Errorf("k = %d exceeds the limit of %d", req.K, maxK)
	}
	opts := whirlpool.Approximate(req.K)
	if req.Exact {
		opts.Relax = whirlpool.RelaxNone
	}
	switch req.Algorithm {
	case "", "whirlpool-s":
		opts.Algorithm = whirlpool.WhirlpoolS
	case "whirlpool-m":
		opts.Algorithm = whirlpool.WhirlpoolM
	case "lockstep":
		opts.Algorithm = whirlpool.LockStep
	case "lockstep-noprun":
		opts.Algorithm = whirlpool.LockStepNoPrune
	default:
		return nil, false, fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
	q, err := whirlpool.ParseQuery(req.Query)
	if err != nil {
		return nil, false, err
	}
	if len(q.Nodes) > maxPatternNodes {
		return nil, false, fmt.Errorf("pattern has %d nodes, the limit is %d", len(q.Nodes), maxPatternNodes)
	}
	planStart := time.Now()
	plan, planHit, err := s.planner.PlanFor(q, opts.Relax, whirlpool.NormSparse)
	if err != nil {
		return nil, false, err
	}
	s.qm.planning.Observe(time.Since(planStart).Microseconds())
	if planHit {
		s.qm.planHits.Inc()
	} else {
		s.qm.planMisses.Inc()
	}
	opts.Plan = plan
	// The engine cache keys on the plan's canonical key — not the query
	// text — so whitespace and predicate-order variants share one
	// engine. Only the dimensions the plan key does not cover (k,
	// algorithm) are appended.
	key := fmt.Sprintf("%s|k=%d|alg=%d", plan.Key, req.K, opts.Algorithm)
	return s.engines.GetOrCreate(key, func() (*engineEntry, error) {
		if s.buildHook != nil {
			s.buildHook()
		}
		ent := newEngineEntry(key, plan.Query)
		var err error
		if s.sdb != nil {
			ent.sharded, err = s.sdb.NewEngine(q, opts)
		} else {
			ent.eng, err = s.db.NewEngine(q, opts)
		}
		if err != nil {
			return nil, err
		}
		return ent, nil
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Request limits; a request over one is refused with 400 (413 for the
// body) before any work is done for it.
const (
	// maxBodyBytes bounds a request body: a request is a line of XPath
	// plus options.
	maxBodyBytes = 1 << 20
	// maxK bounds the answers one /query may ask for: the top-k set and
	// the response both grow with k.
	maxK = 1000
	// maxPatternNodes bounds a query pattern: a run keeps one queue per
	// node, and planning walks a posting list for every valued one.
	maxPatternNodes = 32
)

// decodeBody reads r's JSON body into v and reports whether it could:
// a body over maxBodyBytes is refused with 413 without being read to
// its end, a malformed one with 400 — and so is one holding anything but
// whitespace after its first JSON value, which would otherwise be
// answered for that value alone.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		var rest json.RawMessage
		if err = dec.Decode(&rest); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("more than one JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
