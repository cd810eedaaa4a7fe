package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps the experiment suite fast in unit tests.
func tinyConfig() Config {
	return Config{
		Scale:        0.004, // 1MB→~4KB, 10MB→~40KB, 50MB→~200KB
		Seed:         2,
		K:            5,
		OpCost:       time.Microsecond,
		StaticOrders: 8,
	}
}

func TestFigure3ProducesSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "currentTopK") || !strings.Contains(out, "title→location→price") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// 11 threshold rows + header + separator.
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Fatalf("too few lines (%d):\n%s", lines, out)
	}
}

func TestFigure3NoPlanDominates(t *testing.T) {
	// Re-run the experiment programmatically and check the paper's core
	// claim: the identity of the cheapest plan changes with currentTopK.
	var buf bytes.Buffer
	if err := Figure3(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Data rows start after title, header, separator.
	var bestPlans []int
	for _, line := range lines[3:] {
		fields := strings.Fields(line)
		if len(fields) < 7 {
			continue
		}
		best, bestVal := -1, 0
		for i, f := range fields[1:7] {
			v := 0
			for _, ch := range f {
				v = v*10 + int(ch-'0')
			}
			if best == -1 || v < bestVal {
				best, bestVal = i, v
			}
		}
		bestPlans = append(bestPlans, best)
	}
	if len(bestPlans) < 5 {
		t.Fatalf("too few data rows parsed: %v", bestPlans)
	}
	first := bestPlans[0]
	changed := false
	for _, b := range bestPlans {
		if b != first {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("one plan dominated across all thresholds (%v); the motivating example should show crossovers", bestPlans)
	}
}

func TestFigure5(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure5(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Whirlpool-S", "Whirlpool-M", "max_score", "min_alive"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestFigure6And7(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure6(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LockStep-NoPrun", "LockStep", "Whirlpool-S", "Whirlpool-M", "static-min", "adaptive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 6 missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := Figure7(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "server operations") {
		t.Fatalf("figure 7 output:\n%s", buf.String())
	}
}

func TestFigure8(t *testing.T) {
	var buf bytes.Buffer
	costs := []time.Duration{time.Microsecond, 50 * time.Microsecond}
	if err := Figure8(&buf, tinyConfig(), costs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LockStep-NoPrun") {
		t.Fatalf("figure 8 output:\n%s", buf.String())
	}
}

func TestFigure9(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure9(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Q1", "Q2", "Q3", "1p", "2p", "4p", "∞p"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 9 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure10And11(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure10(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "75") {
		t.Fatalf("figure 10 must sweep k to 75:\n%s", buf.String())
	}
	buf.Reset()
	if err := Figure11(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "Q3") != 3 {
		t.Fatalf("figure 11 must cover Q3 at 3 sizes:\n%s", buf.String())
	}
}

func TestTable2PercentagesAreSane(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "%") {
		t.Fatalf("table 2 output:\n%s", out)
	}
	// Percentages must never exceed 100 (pruning can only reduce work).
	for _, line := range strings.Split(out, "\n") {
		for _, f := range strings.Fields(line) {
			if strings.HasSuffix(f, "%") {
				v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
				if err == nil && v > 100.0001 {
					t.Fatalf("percentage %v > 100%%:\n%s", v, out)
				}
			}
		}
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := QueueDisciplines(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"max-possible-final", "fifo", "current-score", "max-possible-next"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("queue ablation missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := ScoringFunctions(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sparse") || !strings.Contains(buf.String(), "dense") {
		t.Fatalf("scoring ablation:\n%s", buf.String())
	}
}

func TestEnvRunErrorsOnBadConfig(t *testing.T) {
	env, err := NewEnv(1, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Run(Q1, runConfig{}); err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.02 || c.K != 15 || c.Seed != 1 || c.StaticOrders != 120 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := c.bytesFor(Doc1MB); got < 4096 {
		t.Fatalf("bytesFor floor broken: %d", got)
	}
	if got := (Config{Scale: 1}).withDefaults().bytesFor(Doc10MB); got != Doc10MB {
		t.Fatalf("scale 1 should reproduce paper sizes, got %d", got)
	}
}

func TestRewritingVsPlanRelaxation(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	if err := RewritingVsPlanRelaxation(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "closure") || !strings.Contains(out, "Q3") {
		t.Fatalf("rewriting ablation output:\n%s", out)
	}
	// The paper's point: rewriting must cost (much) more than one
	// plan-relaxation run for every query.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Q") {
			continue
		}
		ratio := fields[len(fields)-1]
		v, err := strconv.ParseFloat(strings.TrimSuffix(ratio, "x"), 64)
		if err != nil {
			continue
		}
		if v <= 1 {
			t.Fatalf("rewriting should cost more than plan-relaxation: %s", line)
		}
	}
}

func TestExactBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := ExactBaseline(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Q1", "Q2", "Q3", "join pairs", "whirlpool ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestDiskVsMemory(t *testing.T) {
	var buf bytes.Buffer
	if err := DiskVsMemory(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "memory") || !strings.Contains(out, "snapshot") {
		t.Fatalf("output:\n%s", out)
	}
}
