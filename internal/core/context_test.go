package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
)

func xmarkEnv(t *testing.T, items int, xpath string) (*index.Index, *pattern.Query, *score.TFIDF) {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 3, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse(xpath)
	return ix, q, score.NewTFIDF(ix, q, score.Sparse)
}

func TestRunContextPreCancelled(t *testing.T) {
	ix, q, s := xmarkEnv(t, 20, "//item[./name]")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		eng, err := New(ix, q, Config{K: 3, Relax: relax.All, Algorithm: alg, Scorer: s})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunContext(ctx); err != context.Canceled {
			t.Fatalf("%v: err = %v, want context.Canceled", alg, err)
		}
	}
}

func TestRunContextCancelMidFlight(t *testing.T) {
	// A large-ish workload with per-op cost so cancellation lands while
	// the engine is busy; the run must terminate promptly and report the
	// context error without deadlocking Whirlpool-M's goroutines.
	ix, q, s := xmarkEnv(t, 300, "//item[./description/parlist and ./mailbox/mail/text]")
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep} {
		eng, err := NewExperiment(ix, q, Config{
			K: 15, Relax: relax.All, Algorithm: alg,
			Routing: RoutingMinAlive, Scorer: s,
		}, Experiment{OpCost: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err = eng.RunContext(ctx)
		elapsed := time.Since(start)
		cancel()
		if err != context.DeadlineExceeded {
			// The run may legitimately finish before the deadline on a
			// fast machine; accept success but not other errors.
			if err != nil {
				t.Fatalf("%v: err = %v", alg, err)
			}
			continue
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%v: cancellation took %v", alg, elapsed)
		}
	}
}

func TestRunContextSuccessEqualsRun(t *testing.T) {
	ix, q, s := xmarkEnv(t, 50, "//item[./description/parlist]")
	eng, err := New(ix, q, Config{K: 5, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(scoresOf(r1), scoresOf(r2)) {
		t.Fatal("RunContext with background context must equal Run")
	}
}
