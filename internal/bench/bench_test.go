package bench

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relax"
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

// paperConfig is EXPERIMENTS.md's reduced scale — Scale 0.02, seed 1,
// k = 15, all 120 static orders — at a near-zero operation cost: the
// scale the orderings below are recorded at. tinyConfig is too small
// for them: there min_score beats min_alive, and adaptive routing
// misses the best static order.
func paperConfig() Config { return Config{OpCost: time.Nanosecond}.withDefaults() }

// paperEnvs caches one document per size across the ordering tests.
var paperEnvs = map[int]*Env{}

func paperEnv(t *testing.T, c Config, paperBytes int) *Env {
	t.Helper()
	if env := paperEnvs[paperBytes]; env != nil {
		return env
	}
	env, err := NewEnv(c.Seed, c.bytesFor(paperBytes), c.Norm)
	if err != nil {
		t.Fatal(err)
	}
	paperEnvs[paperBytes] = env
	return env
}

func serverOps(r *core.Result) float64 { return float64(r.Stats.ServerOps) }

// mRuns is how many runs a Whirlpool-M bound must hold in: its
// schedule, and with it every counter, varies from run to run.
const mRuns = 3

// wmBelowWS is how far Whirlpool-M's server operations may fall below
// Whirlpool-S's before TestFigure6And7 fails (see there).
const wmBelowWS = 0.1

// TestFigure5 holds Figure 5's ordering for Whirlpool-S, whose counts
// repeat exactly: the size-based min_alive routing uses the fewest
// server operations (291 against max_score's 394 and min_score's 403).
func TestFigure5(t *testing.T) {
	if err := Figure5(io.Discard, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	c := paperConfig()
	env := paperEnv(t, c, Doc10MB)
	ops := map[core.Routing]float64{}
	for _, routing := range []core.Routing{core.RoutingMaxScore, core.RoutingMinScore, core.RoutingMinAlive} {
		cfg := baseConfig(c, env, Q2, core.WhirlpoolS)
		cfg.Routing = routing
		ops[routing] = serverOps(env.MustRun(Q2, cfg))
	}
	if alive := ops[core.RoutingMinAlive]; alive >= ops[core.RoutingMaxScore] || alive >= ops[core.RoutingMinScore] {
		t.Fatalf("min_alive %v ops, max_score %v, min_score %v: min_alive must use the fewest",
			alive, ops[core.RoutingMaxScore], ops[core.RoutingMinScore])
	}
}

// TestFigure6And7 holds Figures 6 and 7's orderings in server
// operations over the 120 static orders of Q2: Whirlpool-S's adaptive
// routing equals its best static order, and at the static minimum,
// median and maximum Whirlpool-M ≤ LockStep ≤ LockStep-NoPrun exactly,
// Whirlpool-M's in each of mRuns sweeps.
//
// Whirlpool-S ≤ Whirlpool-M is held only within wmBelowWS. Nothing
// makes Whirlpool-S's one max-final queue the cheapest order: Whirlpool-M's
// servers each pop their own queue, in an order the schedule sets, and a
// schedule that completes a good match sooner can raise the threshold
// sooner. Recorded: W-S 291 / 363 / 572, W-M 291–307 / 367–373 / 576–590
// at GOMAXPROCS 1, 2 and 8.
func TestFigure6And7(t *testing.T) {
	for _, fig := range []func(io.Writer, Config) error{Figure6, Figure7} {
		if err := fig(io.Discard, tinyConfig()); err != nil {
			t.Fatal(err)
		}
	}
	c := paperConfig()
	env := paperEnv(t, c, Doc10MB)
	sweep := func(alg core.Algorithm, adaptive bool) sweepResult {
		sw, err := staticSweep(c, env, Q2, alg, adaptive, serverOps)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	ws := sweep(core.WhirlpoolS, true)
	if ws.adaptive != ws.min {
		t.Fatalf("Whirlpool-S adaptive %v ops, best static order %v: adaptive must equal it", ws.adaptive, ws.min)
	}
	lock, noPrune := sweep(core.LockStep, false), sweep(core.LockStepNoPrune, false)
	for run := 0; run < mRuns; run++ {
		wm := sweep(core.WhirlpoolM, false)
		for _, agg := range []struct {
			name string
			of   func(sweepResult) float64
		}{
			{"min", func(s sweepResult) float64 { return s.min }},
			{"median", func(s sweepResult) float64 { return s.median }},
			{"max", func(s sweepResult) float64 { return s.max }},
		} {
			if s, m := agg.of(ws), agg.of(wm); m < (1-wmBelowWS)*s {
				t.Fatalf("run %d, static %s: Whirlpool-M %v ops, more than %v below Whirlpool-S's %v", run, agg.name, m, wmBelowWS, s)
			}
			row := []float64{agg.of(wm), agg.of(lock), agg.of(noPrune)}
			if !slices.IsSorted(row) {
				t.Fatalf("run %d, static %s: W-M, LockStep, LockStep-NoPrun = %v, want non-decreasing", run, agg.name, row)
			}
		}
	}
}

// TestQueueDisciplineOrdering holds the §6.3.1 ablation for
// Whirlpool-S: max-possible-final ≤ max-possible-next < current-score
// < FIFO in server operations (291, 291, 324, 1 318).
func TestQueueDisciplineOrdering(t *testing.T) {
	c := paperConfig()
	env := paperEnv(t, c, Doc10MB)
	var ops []float64
	queues := []core.Queue{core.QueueMaxFinal, core.QueueMaxNext, core.QueueCurrentScore, core.QueueFIFO}
	for _, q := range queues {
		cfg := baseConfig(c, env, Q2, core.WhirlpoolS)
		cfg.Queue = q
		ops = append(ops, serverOps(env.MustRun(Q2, cfg)))
	}
	if !(ops[0] <= ops[1] && ops[1] < ops[2] && ops[2] < ops[3]) {
		t.Fatalf("%v = %v ops, want max-final ≤ max-next < current-score < FIFO", queues, ops)
	}
}

// TestWhirlpoolMWorkWithinWhirlpoolS: on every Q1–Q3 row of Figures 10
// (k = 3, 15, 75 at 213 KB) and 11 (21 KB, 213 KB and 1 MB at k = 15)
// Whirlpool-M does at most 1.5 × Whirlpool-S's server operations, in
// each of mRuns runs — both stream their roots through one queue.
func TestWhirlpoolMWorkWithinWhirlpoolS(t *testing.T) {
	c := paperConfig()
	type row struct {
		paperBytes, k int
	}
	var rows []row
	for _, k := range []int{3, 15, 75} {
		rows = append(rows, row{Doc10MB, k})
	}
	for _, b := range []int{Doc1MB, Doc50MB} {
		rows = append(rows, row{b, c.K})
	}
	for _, r := range rows {
		env := paperEnv(t, c, r.paperBytes)
		cc := c
		cc.K = r.k
		for _, wl := range Queries() {
			s := serverOps(env.MustRun(wl, baseConfig(cc, env, wl, core.WhirlpoolS)))
			for run := 0; run < mRuns; run++ {
				if m := serverOps(env.MustRun(wl, baseConfig(cc, env, wl, core.WhirlpoolM))); m > 1.5*s {
					t.Fatalf("%s, %d bytes, k=%d, run %d: Whirlpool-M %v ops, Whirlpool-S %v", wl.Name, env.Bytes, r.k, run, m, s)
				}
			}
		}
	}
}

// TestTable2ShareFallsWithQuerySize: the share of LockStep-NoPrun's
// partial matches Whirlpool-M creates falls from Q1 to Q3 on the 21 KB
// and 213 KB documents of Table 2, in each of mRuns runs. The 1 MB row
// is exempt from Q1 > Q2: it held while Whirlpool-M seeded every root
// (34.1 % > 11.8 %), and streaming the roots broke it (both now near
// 3.2 %, either ahead by run; EXPERIMENTS, Table 2). There only Q3 must
// come below both.
func TestTable2ShareFallsWithQuerySize(t *testing.T) {
	c := paperConfig()
	for _, b := range []int{Doc1MB, Doc10MB, Doc50MB} {
		env := paperEnv(t, c, b)
		var total []float64
		for _, wl := range Queries() {
			total = append(total, float64(env.MustRun(wl, baseConfig(c, env, wl, core.LockStepNoPrune)).Stats.MatchesCreated))
		}
		for run := 0; run < mRuns; run++ {
			var share []float64
			for i, wl := range Queries() {
				share = append(share, float64(env.MustRun(wl, baseConfig(c, env, wl, core.WhirlpoolM)).Stats.MatchesCreated)/total[i])
			}
			if share[2] >= min(share[0], share[1]) || b != Doc50MB && share[0] <= share[1] {
				t.Fatalf("%d bytes, run %d: Q1–Q3 shares %v, want falling", env.Bytes, run, share)
			}
		}
	}
}

// TestRelaxedCreatesAtLeastExact holds the paper's last ordering:
// relaxed queries do at least as much work as exact ones. Work here is
// partial matches created, for Q1–Q3 × k ∈ {3, 15, 75} × {Whirlpool-S,
// LockStep, LockStep-NoPrun} on the 1 MB and 10 MB documents (21 KB and
// 213 KB at this scale); on 213 KB, Q3 at k = 75 under Whirlpool-S
// creates 2 111 matches exact and 9 136 relaxed. Server operations would
// not do: relaxation can raise the threshold sooner, so at 1 MB Q3
// under Whirlpool-S at k = 3 does 71 operations exact and only 46
// relaxed, though it creates 71 matches exact and 131 relaxed.
func TestRelaxedCreatesAtLeastExact(t *testing.T) {
	c := paperConfig()
	for _, b := range []int{Doc1MB, Doc10MB} {
		env := paperEnv(t, c, b)
		for _, k := range []int{3, 15, 75} {
			cc := c
			cc.K = k
			for _, wl := range Queries() {
				for _, alg := range []core.Algorithm{core.WhirlpoolS, core.LockStep, core.LockStepNoPrune} {
					relaxed := baseConfig(cc, env, wl, alg)
					exact := relaxed
					exact.Relax = relax.None
					e, r := env.MustRun(wl, exact).Stats, env.MustRun(wl, relaxed).Stats
					if r.MatchesCreated < e.MatchesCreated {
						t.Fatalf("%d bytes, %s, k=%d, %v: %d matches created relaxed, %d exact", env.Bytes, wl.Name, k, alg, r.MatchesCreated, e.MatchesCreated)
					}
				}
			}
		}
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
