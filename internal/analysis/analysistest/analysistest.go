// Package analysistest holds an analyzer to a golden testdata package,
// mirroring golang.org/x/tools/go/analysis/analysistest — but through
// the suite's one driver: the package is vetted with a built
// whirlpool-lint exactly as `make lint` vets the tree.
//
// A testdata source line expecting a finding carries a trailing
// comment with a regular expression the diagnostic message must match:
//
//	t.count++ // want `guarded by .*mu`
//
// Lines without a want comment must produce no finding from the
// analyzer under test.
package analysistest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRE matches the whole want clause; backtickRE then extracts each
// expectation, so one line can expect several diagnostics:
// // want `first` `second`.
var (
	wantRE     = regexp.MustCompile("// want ((?:`[^`]*`[ \t]*)+)")
	backtickRE = regexp.MustCompile("`([^`]*)`")
	// diagRE is one line of whirlpool-lint output:
	// file:line:col: message (analyzer).
	diagRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*) \((\w+)\)$`)
)

// BuildTool builds cmd/whirlpool-lint into dir and returns its path.
func BuildTool(dir string) (string, error) {
	tool := filepath.Join(dir, "whirlpool-lint")
	if out, err := exec.Command("go", "build", "-o", tool, "repro/cmd/whirlpool-lint").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building whirlpool-lint: %v\n%s", err, out)
	}
	return tool, nil
}

// Vet runs `go vet -vettool=tool` on the package patterns from dir and
// returns its combined output; err is non-nil when vet fails, which it
// does on any finding.
func Vet(tool, dir string, patterns ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + tool}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// Run vets the package in dir with tool and reports mismatches between
// the named analyzer's diagnostics and the package's want comments.
func Run(t *testing.T, tool, dir, analyzer string) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range files {
		// Read, not just parsed by the vet subprocess: go test's cache
		// then reruns this test whenever the golden changes.
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				if strings.Contains(line, "// want") {
					t.Errorf("%s:%d: malformed want comment (use // want `regexp`)", name, i+1)
				}
				continue
			}
			k := key{filepath.Base(name), i + 1}
			for _, g := range backtickRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(g[1])
				if err != nil {
					t.Errorf("%s:%d: bad want regexp: %v", name, i+1, err)
					continue
				}
				wants[k] = append(wants[k], re)
			}
		}
	}

	out, _ := Vet(tool, dir, ".")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("vet: %s", line) // a type error, or a tool failure
			continue
		}
		if m[4] != analyzer {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		k := key{filepath.Base(m[1]), n}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(m[3]) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", line)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matching `%s`", k.file, k.line, re)
		}
	}
}
