package analysis_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestVetToolDegenerateInputs drives RunVetTool the way cmd/go does,
// but with the inputs broken in each of the ways a vet run can break.
func TestVetToolDegenerateInputs(t *testing.T) {
	// writeCfg writes a vet config; the keys are cmd/go's field names.
	writeCfg := func(t *testing.T, cfg map[string]any) string {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "vet.cfg")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	writeSource := func(t *testing.T, name, src string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("missing config", func(t *testing.T) {
		if code := analysis.RunVetTool(filepath.Join(t.TempDir(), "absent.cfg"), analysis.All()); code != 1 {
			t.Errorf("exit code = %d, want 1", code)
		}
	})

	t.Run("malformed config", func(t *testing.T) {
		path := writeSource(t, "vet.cfg", "{not json")
		if code := analysis.RunVetTool(path, analysis.All()); code != 1 {
			t.Errorf("exit code = %d, want 1", code)
		}
	})

	t.Run("syntax error honors SucceedOnTypecheckFailure", func(t *testing.T) {
		bad := writeSource(t, "bad.go", "package broken\n\nfunc Oops() {\n\tif {\n}\n")
		for _, succeed := range []bool{true, false} {
			vetx := filepath.Join(t.TempDir(), "out.vetx")
			cfg := map[string]any{
				"ImportPath":                "example.com/broken",
				"GoFiles":                   []string{bad},
				"VetxOutput":                vetx,
				"SucceedOnTypecheckFailure": succeed,
			}
			want := 1
			if succeed {
				want = 0
			}
			if code := analysis.RunVetTool(writeCfg(t, cfg), analysis.All()); code != want {
				t.Errorf("SucceedOnTypecheckFailure=%v: exit code = %d, want %d", succeed, code, want)
			}
			// The go command requires the facts file regardless.
			if _, err := os.Stat(vetx); err != nil {
				t.Errorf("SucceedOnTypecheckFailure=%v: facts file not written: %v", succeed, err)
			}
		}
	})

	t.Run("no Go files", func(t *testing.T) {
		vetx := filepath.Join(t.TempDir(), "out.vetx")
		cfg := map[string]any{
			"ImportPath": "example.com/empty",
			"VetxOutput": vetx,
		}
		if code := analysis.RunVetTool(writeCfg(t, cfg), analysis.All()); code != 0 {
			t.Errorf("exit code = %d, want 0 for an empty unit", code)
		}
		if _, err := os.Stat(vetx); err != nil {
			t.Errorf("facts file not written for empty unit: %v", err)
		}
	})
}
