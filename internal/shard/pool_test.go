package shard_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
)

// poolEnv builds a p-way sharded Engines over an XMark document for the
// pool tests, with a whole-corpus scorer as NewEngines requires.
func poolEnv(t *testing.T, items, p int, algo core.Algorithm) *shard.Engines {
	t.Helper()
	doc := xmarkDoc(t, items)
	whole := index.Build(doc)
	q := pattern.MustParse("//item[./description/parlist and ./mailbox/mail/text]")
	cfg := core.Config{K: 10, Relax: relax.All, Algorithm: algo, Scorer: score.NewTFIDF(whole, q, score.Sparse)}
	c, err := shard.Split(doc, p)
	if err != nil {
		t.Fatal(err)
	}
	engs, err := c.NewEngines(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engs
}

// TestWorkerBoundRegression pins the fix for the old one-goroutine-per-
// shard fan-out: the pool never runs more engine workers concurrently
// than min(GOMAXPROCS, shards), for the stealing (Whirlpool-S) and the
// bounded (Whirlpool-M) executor alike.
func TestWorkerBoundRegression(t *testing.T) {
	for _, algo := range []core.Algorithm{core.WhirlpoolS, core.WhirlpoolM} {
		// 8 shards, 4 workers requested: the bound is the worker cap.
		engs := poolEnv(t, 40, 8, algo)
		engs.SetExecOptions(shard.ExecOptions{Workers: 4})
		if _, err := engs.Run(); err != nil {
			t.Fatal(err)
		}
		bound, peak := engs.LastRunWorkers()
		if bound != 4 {
			t.Fatalf("%v: worker bound %d, want 4", algo, bound)
		}
		if peak < 1 || peak > 4 {
			t.Fatalf("%v: peak concurrent workers %d, want 1..4", algo, peak)
		}

		// 2 shards, 8 workers requested: shards cap the pool — more
		// workers than shards would only contend on the two queues.
		engs = poolEnv(t, 40, 2, algo)
		engs.SetExecOptions(shard.ExecOptions{Workers: 8})
		if _, err := engs.Run(); err != nil {
			t.Fatal(err)
		}
		bound, peak = engs.LastRunWorkers()
		if bound != 2 {
			t.Fatalf("%v: worker bound %d, want 2", algo, bound)
		}
		if peak < 1 || peak > 2 {
			t.Fatalf("%v: peak concurrent workers %d, want 1..2", algo, peak)
		}
	}
}

// TestWorkerBoundDefaultsToGOMAXPROCS: with no override, the pool sizes
// itself to min(GOMAXPROCS, shards).
func TestWorkerBoundDefaultsToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	engs := poolEnv(t, 40, 8, core.WhirlpoolS)
	if _, err := engs.Run(); err != nil {
		t.Fatal(err)
	}
	bound, peak := engs.LastRunWorkers()
	if bound != 2 {
		t.Fatalf("worker bound %d, want min(GOMAXPROCS=2, shards=8) = 2", bound)
	}
	if peak > 2 {
		t.Fatalf("peak concurrent workers %d exceeds bound 2", peak)
	}
}

// TestStealingMovesMatches: with several workers over many shards, some
// matches get processed by non-owner workers, and the run reports them —
// for Whirlpool-S and LockStep shards alike, both stepped a batch at a
// time.
// Scheduling decides exactly when a queue is stolen from, so the test
// retries a few runs before declaring stealing dead. GOMAXPROCS > 1
// lets the OS timeslice the workers even on a single-core host — on one
// P a worker runs its shards to completion before anyone can steal.
func TestStealingMovesMatches(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, algo := range []core.Algorithm{core.WhirlpoolS, core.LockStep} {
		if !stealsObserved(t, poolEnv(t, 60, 8, algo)) {
			t.Fatalf("%v: no steals observed across 50 runs of a 4-worker, 8-shard layout", algo)
		}
	}
}

func stealsObserved(t *testing.T, engs *shard.Engines) bool {
	engs.SetExecOptions(shard.ExecOptions{Workers: 4, StealBatch: 2})
	for attempt := 0; attempt < 50; attempt++ {
		res, err := engs.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Steals > 0 {
			if res.Stats.StolenMatches < res.Stats.Steals {
				t.Fatalf("stolen matches %d < steal batches %d", res.Stats.StolenMatches, res.Stats.Steals)
			}
			return true
		}
	}
	return false
}

// TestStealingDisabled: the A/B switch really pins shards to owners.
func TestStealingDisabled(t *testing.T) {
	engs := poolEnv(t, 60, 8, core.WhirlpoolS)
	engs.SetExecOptions(shard.ExecOptions{Workers: 4, DisableStealing: true})
	for i := 0; i < 10; i++ {
		res, err := engs.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Steals != 0 || res.Stats.StolenMatches != 0 {
			t.Fatalf("stealing disabled but run reports steals=%d stolen=%d",
				res.Stats.Steals, res.Stats.StolenMatches)
		}
	}
}

// TestPoolCancellation: a cancelled context surfaces from RunContext for
// both executor paths, before and during the run.
func TestPoolCancellation(t *testing.T) {
	for _, algo := range []core.Algorithm{core.WhirlpoolS, core.LockStep, core.WhirlpoolM} {
		engs := poolEnv(t, 40, 8, algo)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := engs.RunContext(ctx); err != context.Canceled {
			t.Fatalf("%v: pre-cancelled run returned %v, want context.Canceled", algo, err)
		}

		// Mid-run cancellation must return promptly; on a small document
		// the run may legitimately win the race and complete.
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := engs.RunContext(ctx)
			done <- err
		}()
		cancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Fatalf("%v: mid-run cancel returned %v", algo, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: cancelled run did not return within 10s", algo)
		}
	}
}

// TestPoolFinishesCursorOnlyShards: with one worker over eight shards
// and k = 1, most shards never hold a queued match — their roots sit in
// the cursor until the shared threshold cuts them, or are cut before
// the first is pulled. Such a shard must still read as work to pick
// (Depth ≥ 1) until it is done, or the lone worker naps forever; the
// run has to finish, with and without stealing, and agree with the
// unsharded engine.
func TestPoolFinishesCursorOnlyShards(t *testing.T) {
	doc := xmarkDoc(t, 60)
	whole := index.Build(doc)
	q := pattern.MustParse("//item[./description/parlist and ./mailbox/mail/text]")
	cfg := core.Config{K: 1, Relax: relax.All, Algorithm: core.WhirlpoolS, Scorer: score.NewTFIDF(whole, q, score.Sparse)}
	baseEng, err := core.New(whole, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.Split(doc, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []shard.ExecOptions{
		{Workers: 1},
		{Workers: 1, DisableStealing: true},
		{Workers: 3, DisableStealing: true, StealBatch: 1},
	} {
		engs, err := c.NewEngines(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engs.SetExecOptions(opts)
		type outcome struct {
			res *core.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := engs.Run()
			done <- outcome{res, err}
		}()
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("%+v: %v", opts, out.err)
			}
			compareResults(t, fmt.Sprintf("%+v", opts), base, out.res)
		case <-time.After(20 * time.Second):
			t.Fatalf("%+v: run over cursor-only shards did not finish", opts)
		}
	}
}
