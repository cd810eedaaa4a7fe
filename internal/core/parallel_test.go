package core

import (
	"context"
	"testing"

	"repro/internal/relax"
	"repro/internal/score"
)

// stepAlone runs a ParallelRun to completion on the calling goroutine,
// its one stepper, popping up to budget matches per Step, and returns
// its stats. A lone stepper's Step that consumes nothing leaves the
// run done.
func stepAlone(t *testing.T, p *ParallelRun, budget int) Stats {
	t.Helper()
	p.Seed()
	ws := NewScratch()
	for !p.IsDone() {
		if p.Step(ws, budget) == 0 && !p.IsDone() {
			t.Fatalf("budget %d: a lone stepper found a live run empty", budget)
		}
	}
	stats, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestParallelRunMatchesRunContext: a run stepped from outside, at any
// batch budget, against a shared set, must produce the same answers as
// the engine's own loop, with the arena poison catching any use of a
// match past its release.
func TestParallelRunMatchesRunContext(t *testing.T) {
	SetArenaPoisonForTest(true)
	defer SetArenaPoisonForTest(false)
	ix, q := buildEnv(t, booksXML, "/book[./title and ./info/isbn]")
	for _, c := range []struct {
		alg Algorithm
		rel relax.Relaxation
	}{{WhirlpoolS, relax.None}, {WhirlpoolS, relax.All}, {WhirlpoolM, relax.All}, {LockStep, relax.All}, {LockStepNoPrune, relax.All}} {
		alg, rel := c.alg, c.rel
		cfg := Config{K: 3, Relax: rel, Algorithm: alg, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
		e, err := New(ix, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 4} {
			shared := NewSharedTopK(cfg.K, 0)
			p, err := e.NewParallelRun(context.Background(), shared, 0)
			if err != nil {
				t.Fatal(err)
			}
			stats := stepAlone(t, p, budget)
			if got := shared.Answers(); !sameAnswers(got, base.Answers) {
				t.Fatalf("%v rel=%d budget=%d: answers %v, baseline %v", alg, rel, budget, got, base.Answers)
			}
			if stats.MatchesCreated == 0 || stats.ServerOps == 0 {
				t.Fatalf("%v rel=%d budget=%d: empty stats %+v", alg, rel, budget, stats)
			}
		}
	}
}

// TestParallelRunCapacityMismatch: a shared set must have the engine's k.
func TestParallelRunCapacityMismatch(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title]")
	cfg := Config{K: 2, Algorithm: WhirlpoolS, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewParallelRun(context.Background(), NewSharedTopK(3, 0), 0); err == nil {
		t.Fatal("capacity mismatch unexpectedly accepted")
	}
}

// TestParallelRunCancellation: a cancelled context stops Step within
// one batch, Finish reports the context error, and the abort is
// counted — partial work never reaches the engine totals.
func TestParallelRunCancellation(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title and ./info/isbn]")
	cfg := Config{K: 3, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p, err := e.NewParallelRun(ctx, NewSharedTopK(cfg.K, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed()
	cancel()
	ws := NewScratch()
	// Post-cancel steps consume nothing: the first popped batch is
	// released wholesale, later ones find the queue drained.
	p.Step(ws, 1<<20)
	if n := p.Step(ws, 1<<20); n != 0 {
		t.Fatalf("post-cancel Step processed %d matches", n)
	}
	if _, err := p.Finish(); err != context.Canceled {
		t.Fatalf("Finish error %v, want context.Canceled", err)
	}
	if got := e.Totals().Aborted; got != 1 {
		t.Fatalf("Aborted total %d, want 1", got)
	}
}

// TestParallelRunZeroSeed: a query with no root candidates is done the
// moment it seeds.
func TestParallelRunZeroSeed(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/nosuch")
	cfg := Config{K: 2, Algorithm: WhirlpoolS, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.NewParallelRun(context.Background(), NewSharedTopK(2, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed()
	if !p.IsDone() {
		t.Fatal("zero-candidate run not done after Seed")
	}
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
}
