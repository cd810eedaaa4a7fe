package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQueryLimits: a k or a pattern over the stated limits is refused
// with 400 before any plan or engine is built for it; at the limit it
// is served.
func TestQueryLimits(t *testing.T) {
	s := testServer(t)
	if w := post(t, s, "/query", queryRequest{Query: "//item[./name]", K: maxK + 1}); w.Code != http.StatusBadRequest {
		t.Fatalf("k = %d: status %d, want 400", maxK+1, w.Code)
	}
	if w := post(t, s, "/query", queryRequest{Query: "//item[./name]", K: maxK}); w.Code != http.StatusOK {
		t.Fatalf("k = %d: status %d, want 200", maxK, w.Code)
	}
	pattern := func(nodes int) string {
		preds := make([]string, nodes-1)
		for i := range preds {
			preds[i] = "./name"
		}
		return "//item[" + strings.Join(preds, " and ") + "]"
	}
	if w := post(t, s, "/query", queryRequest{Query: pattern(maxPatternNodes + 1), K: 3}); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "nodes") {
		t.Fatalf("%d-node pattern: status %d %s, want 400", maxPatternNodes+1, w.Code, w.Body.String())
	}
	if w := post(t, s, "/query", queryRequest{Query: pattern(maxPatternNodes), K: 3}); w.Code != http.StatusOK {
		t.Fatalf("%d-node pattern: status %d %s, want 200", maxPatternNodes, w.Code, w.Body.String())
	}
	if ps := s.planner.Stats(); ps.Misses != 2 {
		t.Fatalf("planner saw %d shapes, want the 2 within the limits", ps.Misses)
	}
}

// TestServerTimeouts: the daemon's http.Server sets all four connection
// deadlines, and a client that stalls mid-header is cut off.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unset deadline: header %v read %v write %v idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /query HTTP/1.1\r\nHost: x\r\n") // and never the blank line
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled header: connection still open after 5s (%v)", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve after cancel: %v", err)
	}
}

// TestServeDrainsOnShutdown: cancelling serve's context (SIGTERM in
// main) closes the listener at once but lets a request in flight finish
// with its answer. The dial loop ends at the first refused connection
// or a 5 s deadline.
func TestServeDrainsOnShutdown(t *testing.T) {
	s := testServer(t)
	inFlight, release := make(chan struct{}), make(chan struct{})
	s.buildHook = func() { close(inFlight); <-release }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, newHTTPServer(s), ln) }()

	url := "http://" + ln.Addr().String()
	type reply struct {
		code    int
		answers int
		err     error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(`{"query": "//item[./name]", "k": 3}`))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var body queryResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		got <- reply{resp.StatusCode, len(body.Answers), err}
	}()
	<-inFlight
	cancel()
	// The listener goes first: a new connection is refused while the
	// old request is still running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5s after shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request in flight", err)
	default:
	}
	close(release)
	if r := <-got; r.err != nil || r.code != http.StatusOK || r.answers != 3 {
		t.Fatalf("in-flight request: %+v", r)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestStatsReportRootAccessPath: a valued query's engine entry names the
// posting list its roots stream from and counts the roots produced; a
// value-free one scans. The per-request handles resolved at boot feed
// the same series a by-name lookup reads.
func TestStatsReportRootAccessPath(t *testing.T) {
	s := testServer(t)
	for _, q := range []string{"//item[./location = 'United States' and ./name]", "//item[./name]"} {
		if w := post(t, s, "/query", queryRequest{Query: q, K: 3, Exact: true}); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, w.Code, w.Body.String())
		}
	}
	var stats struct {
		Engines []engineStats `json:"engines"`
	}
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	via := map[string]int64{}
	for _, es := range stats.Engines {
		via[es.RootVia] = es.Roots
	}
	if len(via) != 2 || via["postings:location"] < 3 || via["scan"] < 3 {
		t.Fatalf("engine entries report %v, want a scan and a postings:location stream of at least k roots", via)
	}
	var ok, ops int64
	for _, m := range s.reg.Snapshot() {
		switch {
		case m.Name == "whirlpoold_http_requests_total" && m.Labels["endpoint"] == "query" && m.Labels["code"] == "200":
			ok = m.Value
		case m.Name == "whirlpoold_engine_server_ops_total":
			ops = m.Value
		}
	}
	if ok != 2 || ops == 0 {
		t.Fatalf("/metrics: %d ok queries, %d server ops", ok, ops)
	}
	if s.qm.ok != s.reg.Counter("whirlpoold_http_requests_total", "endpoint", "query", "code", "200") ||
		s.qm.serverOps != s.reg.Counter("whirlpoold_engine_server_ops_total") {
		t.Fatal("a handle resolved at boot is not the series its name resolves to")
	}
}

// TestHandlerPanicIsA500: a panic inside a handler costs that request a
// 500 — counted, logged with its stack, access-logged like any other —
// and nothing else: the next request is served.
func TestHandlerPanicIsA500(t *testing.T) {
	var access, stderr bytes.Buffer
	log.SetOutput(&stderr)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s := testServerOpts(t, serverOptions{AccessLog: log.New(&access, "", 0)})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })

	if w := get(t, s, "/boom"); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", w.Code)
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("whirlpoold_panics_total = %d, want 1", got)
	}
	if !strings.Contains(get(t, s, "/metrics?format=prometheus").Body.String(), "whirlpoold_panics_total 1") {
		t.Fatal("/metrics does not report the panic")
	}
	var line struct {
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	first, _, _ := strings.Cut(access.String(), "\n")
	if err := json.Unmarshal([]byte(first), &line); err != nil || line.Path != "/boom" || line.Status != http.StatusInternalServerError {
		t.Fatalf("access log line %q (%v), want /boom with status 500", first, err)
	}
	if !strings.Contains(stderr.String(), "boom") || !strings.Contains(stderr.String(), "harden_test.go") {
		t.Fatalf("panic log %q names neither the value nor the handler's frame", stderr.String())
	}
	if w := post(t, s, "/query", queryRequest{Query: "//item[./name]", K: 3}); w.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d %s", w.Code, w.Body.String())
	}
}

// TestPanickingBuildDoesNotPoisonTheCache: a panic inside an engine
// build is that request's 500, not a cache slot every later request for
// the same engine waits on for ever — the identical request is served.
func TestPanickingBuildDoesNotPoisonTheCache(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s := testServer(t)
	s.buildHook = func() {
		s.buildHook = nil
		panic("boom")
	}
	req := queryRequest{Query: "//item[./location = 'United States']", K: 3}
	if w := post(t, s, "/query", req); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, want 500", w.Code)
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("whirlpoold_panics_total = %d, want 1", got)
	}
	again := make(chan int, 1)
	go func() { again <- post(t, s, "/query", req).Code }()
	select {
	case code := <-again:
		if code != http.StatusOK {
			t.Fatalf("identical request after the panic: status %d, want 200", code)
		}
	case <-time.After(time.Second):
		t.Fatal("identical request after the panic is still waiting on the dead build")
	}
}

// TestTrailingBytesRefused: a body is one JSON value. A second object or
// garbage after the first is refused with 400 on /query,
// rather than answered for the first value alone; trailing whitespace
// is fine.
func TestTrailingBytesRefused(t *testing.T) {
	s := testServer(t)
	const first = `{"query":"//item","k":3}`
	for body, want := range map[string]int{
		first + `{"k":900}`: http.StatusBadRequest,
		first + `garbage`:   http.StatusBadRequest,
		first + " \n\t ":    http.StatusOK,
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if w.Code != want {
			t.Errorf("%q: status %d, want %d (%.80s)", body, w.Code, want, w.Body.String())
		}
	}
}
