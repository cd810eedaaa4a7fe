package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// TestServeMPollsCancellation holds a Whirlpool-M server to its
// per-match poll: with its run cancelled and a match queued, but the
// queues not yet closed (over unset, as before the run's AfterFunc
// fires), the server drops the match unserved and returns. Without the
// poll it serves the match, settles its survivors and waits forever on
// its empty queue.
func TestServeMPollsCancellation(t *testing.T) {
	ix, q, s := xmarkEnv(t, 20, "//item[./description/parlist]")
	eng, err := New(ix, q, Config{K: 3, Relax: relax.All, Algorithm: WhirlpoolM, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := eng.open(ctx, nil, 0, 0, len(eng.roots))
	defer p.Finish()
	r := &p.r
	m := r.seedRoots(true).next()
	if m == nil {
		t.Fatal("no root match to serve")
	}
	qs := make([]lockedPQ, q.Size())
	conds := make([]sync.Cond, len(qs))
	for i := range conds {
		conds[i].L = &qs[i].mu
	}
	qs[1].pq.push(m, r.priority(m, 1))
	cancel()

	var over atomic.Bool
	served := make(chan struct{})
	go func() {
		defer close(served)
		r.serveM(1, qs, conds, &over)
	}()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		over.Store(true)
		qs[1].mu.Lock()
		qs[1].mu.Unlock()
		conds[1].Broadcast()
		<-served
		t.Fatalf("cancelled server still waiting after 2 s, having done %d server operations", r.stats.load(ctrServerOps))
	}
	if ops := r.stats.load(ctrServerOps); ops != 0 {
		t.Fatalf("cancelled server did %d server operations, want 0", ops)
	}
}

// panicAfter panics with itself on its n-th Contribution: to the root
// (the Whirlpool-M router's) when root is set, else to another node (a
// server's).
type panicAfter struct {
	score.Scorer
	n    atomic.Int64
	root bool
}

func (s *panicAfter) Contribution(id int, v score.Variant, ord int32) float64 {
	if (id == 0) == s.root && s.n.Add(-1) == 0 {
		panic(s)
	}
	return s.Scorer.Contribution(id, v, ord)
}

// TestWhirlpoolMPanicReachesCaller: a panic on a Whirlpool-M server, or
// on its router, reaches Run's caller as a Whirlpool-S panic does,
// instead of ending the process. No goroutine of the run outlives it,
// its state is not parked for reuse, and the engine's next run answers
// as before.
func TestWhirlpoolMPanicReachesCaller(t *testing.T) {
	ix, q, s := xmarkEnv(t, 50, "//item[./description/parlist and ./mailbox/mail/text]")
	hook := &panicAfter{Scorer: s}
	eng, err := New(ix, q, Config{K: 5, Relax: relax.All, Algorithm: WhirlpoolM, Scorer: hook})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, n := range []int64{1, 9, -4} { // n < 0: the root's -n-th
		hook.n.Store(max(n, -n))
		hook.root = n < 0
		idleStates.mu.Lock()
		warm := idleStates.list[len(idleStates.list)-1] // the state Run takes
		idleStates.mu.Unlock()
		if got := func() (v any) { defer func() { v = recover() }(); eng.Run(); return nil }(); got != hook {
			t.Fatalf("n=%d: Run panicked with %v", n, got)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("n=%d: %d goroutines after the panic, %d before", n, runtime.NumGoroutine(), baseline)
			}
		}
		idleStates.mu.Lock()
		parked := slices.Contains(idleStates.list, warm)
		idleStates.mu.Unlock()
		if res, err := eng.Run(); parked || err != nil || !sameAnswers(res.Answers, want.Answers) {
			t.Fatalf("n=%d: panicked state parked: %v; next run %v, %v, want %v", n, parked, res, err, want.Answers)
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
