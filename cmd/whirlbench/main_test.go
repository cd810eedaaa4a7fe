package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func fastCfg() bench.Config {
	return bench.Config{Scale: 0.004, Seed: 2, K: 5, OpCost: time.Microsecond, StaticOrders: 4}
}

func TestRunSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, fastCfg(), 3, 0, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunSingleTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, fastCfg(), 0, 2, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, fastCfg(), 0, 0, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Queue-discipline", "Scoring-function", "Rewriting"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownSelectors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, fastCfg(), 4, 0, false); err == nil {
		t.Fatal("figure 4 does not exist")
	}
	if err := run(&buf, fastCfg(), 0, 1, false); err == nil {
		t.Fatal("table 1 is not an experiment")
	}
}

func TestDumpTrace(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	var buf bytes.Buffer
	if err := dumpTrace(&buf, fastCfg(), path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "events written to") {
		t.Fatalf("output:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d events", len(lines))
	}
	var first, last obs.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.Kind != "run_start" || first.Run == nil || first.Run.Algorithm != "Whirlpool-S" {
		t.Fatalf("first event = %+v", first)
	}
	if last.Kind != "run_end" || last.Summary == nil || last.Summary.ServerOps == 0 {
		t.Fatalf("last event = %+v", last)
	}
}
