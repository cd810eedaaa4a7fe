package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/relax"
	"repro/internal/score"
)

// driveParallel runs a ParallelRun to completion on n concurrent
// workers and returns its stats.
func driveParallel(t *testing.T, p *ParallelRun, workers int) Stats {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := NewScratch()
			for !p.IsDone() {
				if p.Step(ws, 4) == 0 {
					// Empty queue but live matches in flight elsewhere.
					time.Sleep(time.Microsecond)
				}
			}
		}(w)
	}
	// One worker seeds; the others spin on the (initially empty) queue.
	p.Seed()
	wg.Wait()
	stats, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestParallelRunMatchesRunContext: the externally-scheduled run of
// every stepped algorithm must produce the same answers as the engine's
// own loop, for any number of driving workers, with the arena poison
// catching any use of a match whose ownership was handed off
// incorrectly between workers.
func TestParallelRunMatchesRunContext(t *testing.T) {
	SetArenaPoisonForTest(true)
	defer SetArenaPoisonForTest(false)
	ix, q := buildEnv(t, booksXML, "/book[./title and ./info/isbn]")
	for _, c := range []struct {
		alg Algorithm
		rel relax.Relaxation
	}{{WhirlpoolS, relax.None}, {WhirlpoolS, relax.All}, {LockStep, relax.All}, {LockStepNoPrune, relax.All}} {
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
		for _, workers := range []int{1, 4} {
			shared := NewSharedTopK(cfg.K, 0)
			p, err := e.NewParallelRun(context.Background(), shared, 0)
			if err != nil {
				t.Fatal(err)
			}
			stats := driveParallel(t, p, workers)
			if got := shared.Answers(); !almostEqual(scoresFromAnswers(got), scoresOf(base)) {
				t.Fatalf("%v rel=%d workers=%d: scores %v, baseline %v",
					alg, rel, workers, scoresFromAnswers(got), scoresOf(base))
			}
			if stats.MatchesCreated == 0 || stats.ServerOps == 0 {
				t.Fatalf("%v rel=%d workers=%d: empty stats %+v", alg, rel, workers, stats)
			}
		}
	}
}

func scoresFromAnswers(as []Answer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Score
	}
	return out
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
