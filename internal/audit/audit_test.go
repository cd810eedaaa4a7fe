// Package audit holds DESIGN.md's lock and cancellation audit as a
// test: every row's mutation must fail the plain test the table names.
package audit

import (
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// row is one line of DESIGN.md's lock and cancellation audit: a source
// mutation (old → new in file, which must occur exactly once) and the
// plain tests (or subtests, Test/sub/…) that must fail on it, run in
// pkgs with go test's flags.
type row struct {
	name, file, old, new string
	race                 bool
	pkgs                 []string
	tests                []string
	timeout              string
}

// rows mirrors DESIGN.md's audit tables. "lockguard" rows drop a lock
// from a type that keeps fields behind a mu; "ctxpoll" rows break a
// loop's bound on cancellation or time; "answer" rows weaken the
// engine's pruning, and name the answer property's subtests or the
// counter check that must fail.
var rows = []row{
	{name: "lockguard/unlocked-lru-len", file: "internal/lru/lru.go",
		old:  "\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.order.Len()",
		new:  "\treturn c.order.Len()",
		race: true, pkgs: []string{"./internal/lru/"}, tests: []string{"TestBoundHoldsUnderConcurrency"}},
	{name: "lockguard/unlocked-registry-exposition", file: "internal/obs/obs.go",
		old:  "\tr.mu.Lock()\n\tout := make([]*metric, 0, len(r.metrics))\n\tfor _, m := range r.metrics {\n\t\tout = append(out, m)\n\t}\n\tr.mu.Unlock()\n",
		new:  "\tout := make([]*metric, 0, len(r.metrics))\n\tfor _, m := range r.metrics {\n\t\tout = append(out, m)\n\t}\n",
		race: true, pkgs: []string{"./internal/obs/"}, tests: []string{"TestRegistryConcurrent"}},
	{name: "lockguard/unlocked-lru-getorcreate", file: "internal/lru/lru.go",
		old:  "\tc.mu.Lock()\n\tif el, ok := c.entries[k]; ok {\n\t\tc.order.MoveToFront(el)\n\t\tf := el.Value.(*flight[K, V])\n\t\tc.mu.Unlock()\n\t\t<-f.ready\n\t\treturn f.val, true, f.err\n\t}\n\tf := &flight[K, V]{key: k, ready: make(chan struct{})}\n\tel := c.order.PushFront(f)\n\tc.entries[k] = el\n\tc.evictLocked()\n\tc.mu.Unlock()\n",
		new:  "\tif el, ok := c.entries[k]; ok {\n\t\tc.order.MoveToFront(el)\n\t\tf := el.Value.(*flight[K, V])\n\t\t<-f.ready\n\t\treturn f.val, true, f.err\n\t}\n\tf := &flight[K, V]{key: k, ready: make(chan struct{})}\n\tel := c.order.PushFront(f)\n\tc.entries[k] = el\n\tc.evictLocked()\n",
		race: true, pkgs: []string{"./internal/lru/"}, tests: []string{"TestBoundHoldsUnderConcurrency"}},
	{name: "lockguard/unlocked-registry-lookup", file: "internal/obs/obs.go",
		old:  "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tm, ok := r.metrics[k]",
		new:  "\tm, ok := r.metrics[k]",
		race: true, pkgs: []string{"./internal/obs/"}, tests: []string{"TestRegistryConcurrent"}},
	{name: "lockguard/unlocked-lockedpq-settle", file: "internal/core/queue.go",
		old:  "\tq.mu.Lock()\n\tdefer q.mu.Unlock()\n\treturn q.pq.settle(r, surv, retired)",
		new:  "\treturn q.pq.settle(r, surv, retired)",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/xmark/q2/none"}, timeout: "10s"},
	{name: "ctxpoll/no-poll-in-servem", file: "internal/core/algorithms.go",
		old:  "\t\tif r.cancelled() {\n\t\t\tr.release(m)\n\t\t\treturn\n\t\t}\n\t\tqs[0].settle(",
		new:  "\t\tqs[0].settle(",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestServeMPollsCancellation"}},
	{name: "ctxpoll/unbounded-spin", file: "internal/core/engine.go",
		old:  "\tend := time.Now().Add(d)\n\tfor time.Now().Before(end) {\n\t}",
		new:  "\tfor time.Now().Before(time.Now().Add(d)) {\n\t}",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestRunContextCancelMidFlight"}, timeout: "3s"},
	{name: "ctxpoll/no-poll-in-step", file: "internal/core/parallel.go",
		old:  "\tfor i, m := range batch {\n\t\tif r.cancelled() {\n\t\t\tfor _, rest := range batch[i:] {\n\t\t\t\tr.release(rest)\n\t\t\t}\n\t\t\tdone = p.q.settle(r, nil, len(batch)-i)\n\t\t\tbatch = batch[:i]\n\t\t\tbreak\n\t\t}\n",
		new:  "\tfor i, m := range batch {\n\t\t_ = i\n",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestParallelRunCancellation"}},
	{name: "ctxpoll/no-poll-in-phase", file: "internal/core/parallel.go",
		old:  "\t\tif r.cancelled() {\n\t\t\tfor _, rest := range batch[i:] {\n\t\t\t\tr.release(rest)\n\t\t\t}\n\t\t\tp.q.settle(r, nil, len(batch)-i)\n\t\t\treturn i\n\t\t}\n",
		new:  "\t\t_ = i\n",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestParallelRunCursorContract"}},
	{name: "lockguard/unlocked-topkset-offer", file: "internal/core/topk.go",
		old:  "\tif t.locked {\n\t\tt.mu.Lock()\n\t\tdefer t.mu.Unlock()\n\t}\n\trootOrd := m.rootOrd()",
		new:  "\trootOrd := m.rootOrd()",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestRunStateReuseAfterCancel"}},
	{name: "lockguard/unlocked-topkset-dominance", file: "internal/core/topk.go",
		old:  "\tif t.locked {\n\t\tt.mu.Lock()\n\t\tdefer t.mu.Unlock()\n\t}\n\tif e, _ := t.find(m.rootOrd()); e != nil {",
		new:  "\tif e, _ := t.find(m.rootOrd()); e != nil {",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestRunStateReuseAfterCancel"}},
	{name: "lockguard/unlocked-arena-release", file: "internal/core/arena.go",
		old:  "\tif a.locked {\n\t\ta.mu.Lock()\n\t\ta.free = append(a.free, m)\n\t\ta.mu.Unlock()\n\t\treturn\n\t}\n",
		new:  "",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestArenaConcurrentRoundTrip"}},
	{name: "lockguard/unlocked-arena-get", file: "internal/core/arena.go",
		old:  "\ta.mu.Lock()\n\tm := a.getLocked()\n\ta.mu.Unlock()\n",
		new:  "\tm := a.getLocked()\n",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestArenaConcurrentRoundTrip"}},
	{name: "lockguard/unlocked-engine-record", file: "internal/core/engine.go",
		old:  "func (e *Engine) Record(st Stats, err error) {\n\te.totalsMu.Lock()\n\tdefer e.totalsMu.Unlock()\n",
		new:  "func (e *Engine) Record(st Stats, err error) {\n",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestRunContextConcurrentReuse"}},
	{name: "lockguard/unlocked-engine-totals", file: "internal/core/engine.go",
		old:  "func (e *Engine) Totals() Totals {\n\te.totalsMu.Lock()\n\tdefer e.totalsMu.Unlock()\n",
		new:  "func (e *Engine) Totals() Totals {\n",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestRunContextConcurrentReuse"}},
	{name: "lockguard/unlocked-idle-release", file: "internal/core/arena.go",
		old:  "\tl := &idleStates\n\tl.mu.Lock()\n\tif len(l.list) == maxIdleStates {\n\t\tl.list = slices.Delete(l.list, 0, 1)\n\t}\n\tl.list = append(l.list, p)\n\tl.mu.Unlock()\n",
		new:  "\tl := &idleStates\n\tif len(l.list) == maxIdleStates {\n\t\tl.list = slices.Delete(l.list, 0, 1)\n\t}\n\tl.list = append(l.list, p)\n",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestRunContextConcurrentReuse"}},
	{name: "answer/segment-bound-largest-missing", file: "internal/core/engine.go",
		old:  "if id != e.rootVia && (least == none || e.maxContrib[id] < least) {",
		new:  "if id != e.rootVia && (least == none || e.maxContrib[id] > least) {",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/segments/q0/all"}},
	{name: "answer/no-full-pass", file: "internal/core/engine.go",
		old:  "\tif !e.x.PaperRoots && fullPass {\n",
		new:  "\tif false {\n",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestFullPassStopsWhereExactStops"}},
	{name: "answer/no-depth-test", file: "internal/core/engine.go",
		old:  "\ttested := e.depthTested &^ absent\n",
		new:  "\ttested := uint64(0)\n",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestExactRunMakesOnlyExactDepthRoots"}},
	{name: "answer/penalty-full-max", file: "internal/core/engine.go",
		old:  "e.penalty[id] = e.maxContrib[id] - rb.MaxRelaxedContribution(id)",
		new:  "e.penalty[id] = e.maxContrib[id]",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/depth-penalty/q0/all"}},
	{name: "answer/hint-no-fallback", file: "internal/index/index.go",
		old:  "if hint == 0 || hint > len(g) || g[hint-1] > uint32(anchor) {",
		new:  "if hint == 0 || hint > len(g) {",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/depth/q0/leaf"}},
	{name: "answer/absent-end-inclusive", file: "internal/core/engine.go",
		old:  "\t\tif i == len(g) || g[i] > end {\n\t\t\tif absent",
		new:  "\t\tif i == len(g) || g[i] >= end {\n\t\t\tif absent",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/depth/q0/none"}},
	{name: "answer/cursor-pointers-kept", file: "internal/core/engine.go",
		old:  "\t\tclear(c.r.at)\n",
		new:  "",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestFullPassStopsWhereExactStops", "TestCursorPopSequenceEqualsEagerSeeding"}},
	{name: "answer/near-tie-exact", file: "internal/core/topk.go",
		old:  "\tif math.Abs(a-b) > pruneEps {\n",
		new:  "\tif a != b {\n",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestTopkSetNearTieRanksByPosition", "FuzzEngineVsNaive/e7f28b9ee312cef9"}},
	{name: "answer/value-lt-as-le", file: "internal/index/valuetest.go",
		old:  "return n < vt.num",
		new:  "return n <= vt.num",
		pkgs: []string{"./internal/core/"}, tests: []string{"TestEngineAgreesWithNaive/random"}},
	{name: "lockguard/unlocked-collector-record", file: "internal/obs/trace.go",
		old:  "func (c *Collector) record(e Event) {\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n",
		new:  "func (c *Collector) record(e Event) {\n",
		race: true, pkgs: []string{"./internal/core/"}, tests: []string{"TestTraceEventsWhirlpoolM"}},
}

// attempts bounds the runs per row: a row passes once one run of its
// tests fails, so a lock row whose race shows in most runs still holds.
const attempts = 3

// TestAuditRows replays DESIGN.md's lock and cancellation audit: each
// row's mutation goes onto its file through `go test -overlay`, leaving
// the tree untouched, and the row's tests must then fail (a failed
// check, a data race, a panic or a timeout), naming one of them.
func TestAuditRows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mutated test binaries")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test caches a pass on what this process opened; the go test
	// subprocesses' reads are invisible to it. Open every Go file so an
	// edit anywhere, the audited tests included, reruns the audit.
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			if f, err := os.Open(path); err == nil {
				f.Close()
			}
		}
		return nil
	})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			path := filepath.Join(root, r.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), r.old); n != 1 {
				t.Fatalf("%s: the audited code occurs %d times, want 1; update the row and DESIGN.md's audit table", r.file, n)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(r.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), r.old, r.new, 1)), 0o666); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o666); err != nil {
				t.Fatal(err)
			}
			timeout := r.timeout
			if timeout == "" {
				timeout = "60s"
			}
			var run []string // each test anchored, level by level
			for _, name := range r.tests {
				run = append(run, "^"+strings.ReplaceAll(name, "/", "$/^")+"$")
			}
			args := []string{"test", "-count=1", "-overlay=" + overlayPath, "-timeout=" + timeout, "-run=" + strings.Join(run, "|")}
			if r.race {
				args = append(args, "-race")
			}
			args = append(args, r.pkgs...)
			var out []byte
			for i := 0; i < attempts; i++ {
				cmd := exec.Command("go", args...)
				cmd.Dir = root
				out, err = cmd.CombinedOutput()
				if err != nil && caught(string(out), r.tests) {
					return
				}
				if err != nil {
					break // failed for another reason: a build error, say
				}
			}
			t.Fatalf("go %s: the mutation went uncaught by %s in %d runs (err %v):\n%s",
				strings.Join(args, " "), strings.Join(r.tests, ", "), attempts, err, out)
		})
	}
}

// caught reports whether a failing go test output names one of tests:
// a --- FAIL line, a timeout's list of running tests or a stack trace.
func caught(out string, tests []string) bool {
	for _, name := range tests {
		if strings.Contains(out, name) {
			return true
		}
	}
	return false
}
