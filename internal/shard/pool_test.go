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
// shard fan-out: the pool sizes itself to min(GOMAXPROCS, shards) and
// never runs more workers at once, for stepped (Whirlpool-S, LockStep)
// and Whirlpool-M shards alike.
func TestWorkerBoundRegression(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, algo := range []core.Algorithm{core.WhirlpoolS, core.LockStep, core.WhirlpoolM} {
		for _, c := range []struct{ gmp, shards, bound int }{
			{4, 8, 4}, // the cores bound the pool
			{8, 2, 2}, // the shards do: a third worker would find nothing to claim
			{2, 8, 2},
		} {
			engs := poolEnv(t, 40, c.shards, algo)
			runtime.GOMAXPROCS(c.gmp)
			_, err := engs.Run()
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			bound, peak := engs.LastRunWorkers()
			if bound != c.bound || peak < 1 || peak > bound {
				t.Fatalf("%v, GOMAXPROCS %d, %d shards: worker bound %d peak %d, want bound %d", algo, c.gmp, c.shards, bound, peak, c.bound)
			}
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

// TestPoolFinishesCursorOnlyShards: with k = 1 over eight shards, most
// shards never hold a queued match — their roots sit in the cursor until
// the shared threshold cuts them, or are cut before the first is
// pulled. Each such shard's run must still end, on one worker or
// several, and the whole must agree with the unsharded engine.
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
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 3} {
		engs, err := c.NewEngines(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			res *core.Result
			err error
		}
		done := make(chan outcome, 1)
		runtime.GOMAXPROCS(gmp)
		go func() {
			res, err := engs.Run()
			done <- outcome{res, err}
		}()
		select {
		case out := <-done:
			runtime.GOMAXPROCS(old)
			if out.err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", gmp, out.err)
			}
			compareResults(t, fmt.Sprintf("GOMAXPROCS %d", gmp), base, out.res)
		case <-time.After(20 * time.Second):
			t.Fatalf("GOMAXPROCS %d: run over cursor-only shards did not finish", gmp)
		}
	}
}

// TestShardedRunAllocs: a warm sharded run allocates per run — the
// shared top-k set and its entries, the per-shard stats, the workers
// and the merged answers — and nothing per claimed shard: each claim
// opens its run from the idle states, drives it on the worker's own
// goroutine and hands it back. Over 8 shards of XMark (seed 1, 200
// items) Q2, k = 10, relaxed, a Whirlpool-S run makes 30 allocations at
// GOMAXPROCS 1, 2 and 8; one allocation per claimed shard breaks the
// bound of 32.
func TestShardedRunAllocs(t *testing.T) {
	engs := poolEnv(t, 200, 8, core.WhirlpoolS)
	if engs.Shards() != 8 {
		t.Fatalf("%d shards, want 8", engs.Shards())
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		if _, err := engs.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { engs.Run() }); allocs > 32 {
			t.Fatalf("GOMAXPROCS %d: warm sharded run allocates %.0f objects, want at most 32", gmp, allocs)
		}
	}
}
