package analysis_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// tool is whirlpool-lint, built once for every golden.
var tool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "whirlpool-lint")
	if err != nil {
		panic(err)
	}
	if tool, err = analysistest.BuildTool(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestAnalyzers vets every analyzer's golden testdata package: seeded
// violations must be reported (matching the `// want` patterns) and
// clean code must stay silent.
func TestAnalyzers(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, tool, filepath.Join("testdata", "src", a.Name), a.Name)
		})
	}
}

// TestAuditRows replays the rows of DESIGN.md's mutation audit that the
// surviving analyzers catch: each row puts its bug back into tree code
// through a `go vet -overlay`, and the analyzer must report it. A row
// whose code has moved fails here; update it and the audit table.
func TestAuditRows(t *testing.T) {
	rows := []struct {
		name, file, old, new, analyzer, want string
	}{
		{"unlocked-lru-len", "internal/lru/lru.go",
			"\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.order.Len()",
			"\treturn c.order.Len()",
			"lockguard", `Cache\.order is guarded by Cache\.mu`},
		{"unlocked-registry-exposition", "internal/obs/obs.go",
			"\tr.mu.Lock()\n\tout := make([]*metric, 0, len(r.metrics))\n\tfor _, m := range r.metrics {\n\t\tout = append(out, m)\n\t}\n\tr.mu.Unlock()\n",
			"\tout := make([]*metric, 0, len(r.metrics))\n\tfor _, m := range r.metrics {\n\t\tout = append(out, m)\n\t}\n",
			"lockguard", `Registry\.metrics is guarded by Registry\.mu`},
		{"unlocked-lockedpq-settle", "internal/core/queue.go",
			"\tq.mu.Lock()\n\tdefer q.mu.Unlock()\n\treturn q.pq.settle(r, surv, retired)",
			"\treturn q.pq.settle(r, surv, retired)",
			"lockguard", `lockedPQ\.pq is guarded by lockedPQ\.mu`},
		{"no-poll-in-servem", "internal/core/algorithms.go",
			"\t\tif r.cancelled() {\n\t\t\tr.release(m)\n\t\t\treturn\n\t\t}\n\t\tqs[0].settle(",
			"\t\tqs[0].settle(",
			"ctxpoll", `unbounded loop never polls cancellation`},
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.analyzer+"/"+row.name, func(t *testing.T) {
			path := filepath.Join(root, row.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), row.old); n != 1 {
				t.Fatalf("%s: the audited code occurs %d times, want 1; update the row and DESIGN.md's audit table", row.file, n)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(row.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), row.old, row.new, 1)), 0o666); err != nil {
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
			out, err := analysistest.Vet(tool, root, "-overlay="+overlayPath, "./"+filepath.Dir(row.file))
			want := regexp.MustCompile(`: .*` + row.want + `.* \(` + row.analyzer + `\)`)
			if err == nil || !want.MatchString(out) {
				t.Fatalf("the %s mutation in %s went unreported by %s (err %v):\n%s", row.name, row.file, row.analyzer, err, out)
			}
		})
	}
}

// TestRegistry pins the suite contents: adding or deleting an analyzer
// is a decision DESIGN.md's mutation audit has to record.
func TestRegistry(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, ","), "ctxpoll,lockguard"; got != want {
		t.Fatalf("All() = %s, want %s", got, want)
	}
}
