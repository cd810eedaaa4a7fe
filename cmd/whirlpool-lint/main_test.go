package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// tool is whirlpool-lint, built once for every test.
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

// moduleRoot is the repository root, two levels above this package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestLintGate is tier-1's lint gate, run the one way the suite is run:
// build the tool and `go vet -vettool` the whole module, test files
// included. The tree must be clean, and the gate must fail on the
// seeded ctxpoll golden, a match loop that never polls cancellation.
func TestLintGate(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the module")
	}
	root := moduleRoot(t)
	// go test caches a pass on what this process opened; the vet
	// subprocess's reads are invisible to it. Open every Go file so an
	// edit anywhere reruns the gate.
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
	if out, err := analysistest.Vet(tool, root, "./..."); err != nil {
		t.Fatalf("go vet -vettool ./... on the module: %v\n%s", err, out)
	}
	out, err := analysistest.Vet(tool, root, "./internal/analysis/testdata/src/ctxpoll")
	if err == nil || !strings.Contains(out, "unbounded loop never polls cancellation") {
		t.Fatalf("the gate missed the seeded unpolled loop (err %v):\n%s", err, out)
	}
}

// TestVersionHandshake holds the two queries cmd/go makes of a vet tool
// before it runs one: -V=full, whose "version devel … buildID=" line
// keys vet's cache, and -flags, the tool's flags as a JSON list.
func TestVersionHandshake(t *testing.T) {
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.HasPrefix(string(out), "whirlpool-lint version devel buildID=") {
		t.Fatalf("-V=full printed %q, want a devel version line with a buildID", out)
	}
	out, err = exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []any
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags printed %q, not a JSON list: %v", out, err)
	}
}

// TestUsageListsAnalyzers: run by hand, the tool exits 2 with its usage
// and every analyzer of the suite.
func TestUsageListsAnalyzers(t *testing.T) {
	var stderr strings.Builder
	cmd := exec.Command(tool)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Fatalf("no arguments: %v, want exit status 2", err)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stderr.String(), a.Name) {
			t.Errorf("usage does not list %s:\n%s", a.Name, stderr.String())
		}
	}
}

// TestVetToolProtocol drives the binary exactly the way `go vet
// -vettool` does: the go command invokes it per package with config
// files.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet")
	}
	root := moduleRoot(t)
	if out, err := analysistest.Vet(tool, root, "./internal/core/"); err != nil {
		t.Fatalf("go vet -vettool on clean package: %v\n%s", err, out)
	}
	out, err := analysistest.Vet(tool, root, "./internal/analysis/testdata/src/lockguard/")
	if err == nil {
		t.Fatalf("go vet -vettool on seeded testdata succeeded; output:\n%s", out)
	}
	if !strings.Contains(out, "guarded by counter.mu") {
		t.Fatalf("vet output missing lockguard diagnostic:\n%s", out)
	}
}
