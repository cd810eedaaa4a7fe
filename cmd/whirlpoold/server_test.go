package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

func testServer(t *testing.T) *server {
	t.Helper()
	return testServerOpts(t, serverOptions{})
}

func testServerOpts(t *testing.T, opts serverOptions) *server {
	t.Helper()
	db, err := whirlpool.GenerateXMark(whirlpool.XMarkOptions{Seed: 3, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, s *server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestHealthAndStats(t *testing.T) {
	s := testServer(t)
	w := get(t, s, "/healthz")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
	// Run one query so /stats has a cached engine to report on.
	if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 3}); w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	w = get(t, s, "/stats")
	var stats struct {
		Nodes int `json:"nodes"`
		Cache struct {
			Engines struct{ Len, Cap int } `json:"engines"`
		} `json:"cache"`
		Engines []engineStats `json:"engines"`
	}
	if err := json.NewDecoder(w.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Cache.Engines.Len != 1 || stats.Cache.Engines.Cap != defaultCacheSize {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
	if len(stats.Engines) != 1 {
		t.Fatalf("engine stats = %+v", stats.Engines)
	}
	es := stats.Engines[0]
	if es.Runs != 1 || es.ServerOps == 0 || es.MatchesCreated == 0 {
		t.Fatalf("engine totals = %+v", es)
	}
}

// Scores compare exactly: served scores must match the engine's exactly.
func TestQueryEndpoint(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 5})
	if w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var resp queryResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 5 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if resp.ServerOps == 0 {
		t.Fatal("missing stats")
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", resp.Cache)
	}
	a := resp.Answers[0]
	if a.Score <= 0 || a.Path == "" || a.Dewey == "" {
		t.Fatalf("answer = %+v", a)
	}
	// Bindings are keyed "nodeID:tag" so same-tag query nodes cannot
	// collide; the parlist binding must be present under some node ID.
	found := false
	for k, v := range a.Bindings {
		if strings.HasSuffix(k, ":parlist") && v != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bindings = %v", a.Bindings)
	}

	// The same request again is served from the engine cache.
	w = post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 5})
	if w.Code != 200 {
		t.Fatalf("repeat query: %d %s", w.Code, w.Body.String())
	}
	resp = queryResponse{}
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("repeat request cache = %q, want hit", resp.Cache)
	}
}

// TestBindingKeysDisambiguateSameTag pins the nodeID:tag key format: a
// query with two nodes of the same tag must report both bindings, not
// silently collapse them into one map entry.
func TestBindingKeysDisambiguateSameTag(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist/listitem and ./mailbox/mail/text/keyword and ./name]", K: 3})
	if w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var resp queryResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("no answers")
	}
	// Every binding key must carry a node-ID prefix.
	for _, a := range resp.Answers {
		for k := range a.Bindings {
			parts := strings.SplitN(k, ":", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("binding key %q not in nodeID:tag form", k)
			}
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body   any
		status int
	}{
		{queryRequest{}, http.StatusBadRequest},                                    // missing query
		{queryRequest{Query: "not an xpath"}, http.StatusBadRequest},               // parse error
		{queryRequest{Query: "//item", Algorithm: "bogus"}, http.StatusBadRequest}, // bad algorithm
		{"not even json {{", http.StatusBadRequest},                                // malformed body
	}
	for i, c := range cases {
		w := post(t, s, "/query", c.body)
		if w.Code != c.status {
			t.Errorf("case %d: status %d, want %d (%s)", i, w.Code, c.status, w.Body.String())
		}
	}
	// GET is not allowed.
	if w := get(t, s, "/query"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", w.Code)
	}
}

// TestOutsideQueryModel: the daemon serves the paper's tree patterns and
// nothing else. /keyword is gone (404 for any method), a /query using the
// following-sibling axis is a parse error (400) naming the axis wherever
// the step stands, and neither /stats nor /metrics reports keyword state.
func TestOutsideQueryModel(t *testing.T) {
	s := testServer(t)
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		t.Run("keyword-"+method, func(t *testing.T) {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(method, "/keyword", strings.NewReader(`{"scope":"item","query":"gold","k":3}`)))
			if w.Code != http.StatusNotFound {
				t.Fatalf("%s /keyword: %d, want 404 (%s)", method, w.Code, w.Body.String())
			}
		})
	}
	for _, c := range []struct{ name, query string }{
		{"sibling-root", "//following-sibling::item"},
		{"sibling-below-child", "//item[./mailbox/following-sibling::name]"},
		{"sibling-opening-predicate", "//item[following-sibling::item]"},
		{"sibling-nested-predicate", "//item[./mailbox/mail[./from and following-sibling::mail]]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := post(t, s, "/query", queryRequest{Query: c.query, K: 3})
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unsupported axis following-sibling::") {
				t.Fatalf("%s: %d %s, want 400 naming the axis", c.query, w.Code, w.Body.String())
			}
		})
	}
	t.Run("stats-no-keyword", func(t *testing.T) {
		var stats struct {
			Cache map[string]json.RawMessage `json:"cache"`
		}
		if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range stats.Cache {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"engines", "plans", "predicates"}) {
			t.Fatalf("/stats caches = %v, want engines, plans and predicates only", keys)
		}
	})
	t.Run("metrics-no-keyword", func(t *testing.T) {
		var body struct {
			Metrics []obs.Metric `json:"metrics"`
		}
		if err := json.Unmarshal(get(t, s, "/metrics").Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		var other int64
		for _, m := range body.Metrics {
			if strings.Contains(m.Name, "keyword") {
				t.Fatalf("/metrics still exports %s", m.Name)
			}
			if m.Name == "whirlpoold_http_requests_total" && m.Labels["endpoint"] == "other" && m.Labels["code"] == "404" {
				other = m.Value
			}
		}
		if other != 2 {
			t.Fatalf("the two /keyword requests counted %d times as endpoint=other code=404", other)
		}
	})
}

// TestQueryErrorsNotCached pins that a failed engine build does not
// poison the cache: the same bad query fails identically twice and
// leaves no entry behind.
func TestQueryErrorsNotCached(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 2; i++ {
		if w := post(t, s, "/query", queryRequest{Query: "not an xpath"}); w.Code != http.StatusBadRequest {
			t.Fatalf("attempt %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if n := s.engines.Len(); n != 0 {
		t.Fatalf("failed builds left %d cache entries", n)
	}
}

func TestQueryEngineCacheAndConcurrency(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := queryRequest{Query: "//item[./description/parlist and ./mailbox/mail/text]", K: 3}
			if i%2 == 0 {
				body.Algorithm = "whirlpool-m"
			}
			w := post(t, s, "/query", body)
			if w.Code != 200 {
				t.Errorf("concurrent query: %d %s", w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	// Per-key singleflight: 16 requests over 2 signatures build exactly
	// 2 engines.
	if cached := s.engines.Len(); cached != 2 {
		t.Fatalf("engine cache entries = %d, want 2", cached)
	}
}

// TestEngineCacheLRUBound pins the leak fix: the engine cache never
// exceeds its capacity no matter how many distinct signatures arrive.
func TestEngineCacheLRUBound(t *testing.T) {
	s := testServerOpts(t, serverOptions{CacheSize: 4})
	for k := 1; k <= 10; k++ {
		w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: k})
		if w.Code != 200 {
			t.Fatalf("k=%d: %d %s", k, w.Code, w.Body.String())
		}
	}
	if n, c := s.engines.Len(), s.engines.Cap(); n != 4 || c != 4 {
		t.Fatalf("engine cache len=%d cap=%d, want 4/4", n, c)
	}
	// Evicted signatures still work (rebuilt on demand).
	if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 1}); w.Code != 200 {
		t.Fatalf("evicted signature: %d %s", w.Code, w.Body.String())
	}
}

// TestBuildDoesNotBlockServingPath is the regression test for the
// serving-path stall: under the old server-wide lock, any request
// arriving while an engine was being built blocked
// until the build finished — even requests whose engine was already
// cached. Now construction happens outside the cache lock, so a parked
// build must not delay cached requests for other keys.
func TestBuildDoesNotBlockServingPath(t *testing.T) {
	s := testServer(t)
	warmQuery := queryRequest{Query: "//item[./description/parlist]", K: 3}
	if w := post(t, s, "/query", warmQuery); w.Code != 200 {
		t.Fatalf("warm query: %d %s", w.Code, w.Body.String())
	}

	entered := make(chan struct{})
	gate := make(chan struct{})
	s.buildHook = func() {
		entered <- struct{}{}
		<-gate
	}

	slowDone := make(chan int, 1)
	go func() {
		w := post(t, s, "/query", queryRequest{Query: "//item[./mailbox/mail/text]", K: 3})
		slowDone <- w.Code
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow build never started")
	}

	// With the build for the new signature parked inside buildHook, the
	// warm request must still be served promptly.
	fastDone := make(chan int, 1)
	go func() { fastDone <- post(t, s, "/query", warmQuery).Code }()
	select {
	case code := <-fastDone:
		if code != 200 {
			t.Fatalf("cached request failed during in-flight build: %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cached request blocked on another key's in-flight build")
	}

	close(gate)
	select {
	case code := <-slowDone:
		if code != 200 {
			t.Fatalf("slow build request: %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow build request never finished")
	}
	s.buildHook = nil
}

// TestMetricsAdvance asserts the acceptance criterion: after a query,
// /metrics exposes advanced request counters, latency histograms and
// engine counters in both JSON and Prometheus text forms.
func TestMetricsAdvance(t *testing.T) {
	s := testServer(t)
	if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 3}); w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}

	w := get(t, s, "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics: %d", w.Code)
	}
	var body struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	if err := json.NewDecoder(w.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	find := func(name string, labels map[string]string) *obs.Metric {
		for i := range body.Metrics {
			m := &body.Metrics[i]
			if m.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if m.Labels[k] != v {
					ok = false
				}
			}
			if ok {
				return m
			}
		}
		return nil
	}
	if m := find("whirlpoold_http_requests_total", map[string]string{"endpoint": "query", "code": "200"}); m == nil || m.Value < 1 {
		t.Fatalf("request counter missing or zero: %+v", m)
	}
	if m := find("whirlpoold_http_request_duration_us", map[string]string{"endpoint": "query"}); m == nil || m.Kind != "histogram" || m.Histogram == nil || m.Histogram.Count < 1 {
		t.Fatalf("latency histogram missing or empty: %+v", m)
	}
	if m := find("whirlpoold_engine_server_ops_total", nil); m == nil || m.Value < 1 {
		t.Fatalf("engine server-ops counter missing or zero: %+v", m)
	}
	if m := find("whirlpoold_query_duration_us", nil); m == nil || m.Histogram == nil || m.Histogram.Count < 1 {
		t.Fatalf("query duration histogram missing or empty: %+v", m)
	}
	if m := find("whirlpoold_load_us", nil); m == nil || m.Histogram == nil || m.Histogram.Count != 1 {
		t.Fatalf("build-boot histogram missing or not one boot: %+v", m)
	}
	if m := find("whirlpoold_engine_cache_misses_total", nil); m == nil || m.Value != 1 {
		t.Fatalf("cache miss counter = %+v", m)
	}

	// Prometheus text exposition of the same registry.
	w = get(t, s, "/metrics?format=prometheus")
	if w.Code != 200 {
		t.Fatalf("/metrics?format=prometheus: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		"# TYPE whirlpoold_http_requests_total counter",
		`whirlpoold_http_requests_total{endpoint="query",code="200"} `,
		"# TYPE whirlpoold_http_request_duration_us histogram",
		`whirlpoold_http_request_duration_us_bucket{endpoint="query",le="+Inf"} `,
		`whirlpoold_http_request_duration_us_count{endpoint="query"} `,
		"# TYPE whirlpoold_engine_server_ops_total counter",
		"# TYPE whirlpoold_engine_cache_entries gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestMixedConcurrentLoad drives a mix of /query signatures together
// (run under -race in CI): handlers share the caches and the registry
// but must never block on each other's construction, and the LRU bound
// must hold throughout.
func TestMixedConcurrentLoad(t *testing.T) {
	s := testServerOpts(t, serverOptions{CacheSize: 3})
	queries := []queryRequest{
		{Query: "//item[./description/parlist]", K: 3},
		{Query: "//item[./description/parlist]", K: 3, Algorithm: "whirlpool-m"},
		{Query: "//item[./mailbox/mail/text]", K: 2},
		{Query: "//item[./name]", K: 4, Algorithm: "lockstep"},
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/query", queries[i%len(queries)])
			if w.Code != 200 {
				t.Errorf("query %d: %d %s", i, w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	if n, c := s.engines.Len(), s.engines.Cap(); n > c {
		t.Fatalf("engine cache exceeded bound: len=%d cap=%d", n, c)
	}
	if w := get(t, s, "/metrics"); w.Code != 200 {
		t.Fatalf("/metrics after load: %d", w.Code)
	}
}

// TestAccessLog asserts the structured access-log line: one JSON object
// per request with method, path, status, latency and cache annotation.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := log.New(syncWriter{mu: &mu, w: &buf}, "", 0)
	s := testServerOpts(t, serverOptions{AccessLog: logger})
	if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 3}); w.Code != 200 {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("access log lines = %d: %q", len(lines), lines)
	}
	var entry struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMS  float64 `json:"dur_ms"`
		Cache  string  `json:"cache"`
		Bytes  int64   `json:"bytes"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log not JSON: %v (%q)", err, lines[0])
	}
	if entry.Method != "POST" || entry.Path != "/query" || entry.Status != 200 {
		t.Fatalf("access log entry = %+v", entry)
	}
	if entry.Cache != "miss" {
		t.Fatalf("cache annotation = %q, want miss", entry.Cache)
	}
	if entry.DurMS < 0 || entry.Bytes <= 0 {
		t.Fatalf("access log entry = %+v", entry)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestQueryTimeout(t *testing.T) {
	s := testServer(t)
	// A 1ms timeout may or may not fire; accept either success or
	// gateway timeout, but never another error.
	w := post(t, s, "/query", queryRequest{Query: "//item[./mailbox/mail/text[./bold and ./keyword] and ./name]", K: 15, TimeoutMS: 1})
	if w.Code != 200 && w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout query: %d %s", w.Code, w.Body.String())
	}
}

// Scores compare exactly: sharded and unsharded serving must agree exactly.
func TestShardedServing(t *testing.T) {
	s := testServerOpts(t, serverOptions{Shards: 4})
	base := testServer(t)

	req := queryRequest{Query: "//item[./description/parlist and ./mailbox/mail/text]", K: 5}
	w := post(t, s, "/query", req)
	if w.Code != 200 {
		t.Fatalf("sharded query: %d %s", w.Code, w.Body.String())
	}
	var got, want queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	bw := post(t, base, "/query", req)
	if err := json.Unmarshal(bw.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("sharded answers = %d, unsharded %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i].Score != want.Answers[i].Score {
			t.Fatalf("answer %d: sharded score %v, unsharded %v",
				i, got.Answers[i].Score, want.Answers[i].Score)
		}
	}

	// A sharded query counts as one run: after a second, cached
	// request, /stats says two runs for the one engine, and the
	// shard count.
	if w := post(t, s, "/query", req); w.Code != 200 {
		t.Fatalf("repeated sharded query: %d %s", w.Code, w.Body.String())
	}
	sw := get(t, s, "/stats")
	if sw.Code != 200 {
		t.Fatalf("stats: %d", sw.Code)
	}
	var stats struct {
		Sharding struct {
			Shards int `json:"shards"`
		} `json:"sharding"`
		Engines []engineStats `json:"engines"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sharding.Shards != 4 {
		t.Fatalf("sharding section = %+v", stats.Sharding)
	}
	if len(stats.Engines) != 1 {
		t.Fatalf("engines = %d, want 1", len(stats.Engines))
	}
	if es := stats.Engines[0]; es.Runs != 2 || es.Aborted != 0 || es.RootVia != "scan" || es.Roots == 0 || es.ServerOps == 0 {
		t.Fatalf("engine stats = %+v, want 2 runs over scanned roots", es)
	}

	// Per-shard metrics reached the registry.
	mw := get(t, s, "/metrics?format=prometheus")
	if !strings.Contains(mw.Body.String(), "whirlpool_shard_server_ops_total") {
		t.Fatal("metrics missing per-shard counters")
	}
}

// TestOversizedBodyRefused: a request body over maxBodyBytes is
// answered 413 on /query — as a syntactically fine JSON
// document, so only the limit can refuse it — and the daemon serves
// the next request as usual.
func TestOversizedBodyRefused(t *testing.T) {
	s := testServer(t)
	pad := strings.Repeat("x", 2<<20)
	cases := []struct {
		path      string
		big, next any
	}{
		{"/query", queryRequest{Query: "//item[./name]", Algorithm: pad}, queryRequest{Query: "//item[./name]", K: 3}},
	}
	for _, c := range cases {
		if w := post(t, s, c.path, c.big); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: status %d, want 413 (%.80s)", c.path, w.Code, w.Body.String())
		}
		if w := post(t, s, c.path, c.next); w.Code != http.StatusOK {
			t.Errorf("%s after the refused request: %d %s", c.path, w.Code, w.Body.String())
		}
	}
}
