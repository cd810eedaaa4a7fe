package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ParallelRun is one evaluation of an engine, and the only way an
// engine executes: NewParallelRun → Seed (exactly once) → Step until
// IsDone or the context is cancelled → Finish (exactly once, after the
// last Step returned). RunContext and RunShared are that loop on the
// calling goroutine; the sharded executor (internal/shard) lets any
// number of pool workers Step concurrently, each with its own Scratch —
// the primitive behind its match-level work stealing.
//
// A Whirlpool-S run is stepped a batch of queued matches at a time. The
// other algorithms own their control flow and are hosted as one
// indivisible step: the first Step after Seed claims the run and
// returns when it is over, anyone else's returns 0 at once.
//
// A run opened by NewParallelRun keeps its queue behind a mutex and its
// arena on sharded, locked freelists, so a match carved by one worker
// and released by another — exactly what a steal produces — returns to
// its home freelist without racing. Which worker processes a match
// cannot change the answer: offers and prunes go through one shared
// top-k set whose threshold is at all times a lower bound on the true
// k-th score (see DESIGN.md, one kernel, thin drivers).
//
// A ParallelRun is also everything a run buys that can outlive it —
// arena slabs, RunContext's own top-k set, the heap's backing array,
// the exclusive driver's scratch. It idles between runs in a bounded
// free list keyed by binding width and arena layout: global, not per
// engine (a daemon caches hundreds of engines and runs a few at once),
// and a plain list, not a sync.Pool, so that what a request allocates
// does not depend on when the collector last ran. Finish hands it back:
// no method may be called on it afterwards.
type ParallelRun struct {
	r     run
	arena *matchArena
	topk  *topkSet    // an exclusive run's own set
	sq    stealQueue  // heap, held match, cursor and live count; the heap's array stays
	q     routerQueue // &sq, or the lock-free &sq.pq of an exclusive run
	ws    Scratch     // the exclusive driver's
	// whole hosts an indivisible algorithm: 0 for Whirlpool-S (and
	// before Seed), 1 seeded and unclaimed, 2 claimed.
	whole    atomic.Int32
	doneFlag atomic.Bool
	doneAtNS atomic.Int64
	start    time.Time
}

// NewParallelRun prepares a run of the engine against shared,
// attributed to shardID, that any number of goroutines may step. The
// context governs cancellation of every subsequent Seed/Step; Finish
// reports its error if it fires.
func (e *Engine) NewParallelRun(ctx context.Context, shared *SharedTopK, shardID int) (*ParallelRun, error) {
	if shared.set.k != e.cfg.K {
		return nil, fmt.Errorf("core: shared top-k capacity %d != Config.K %d", shared.set.k, e.cfg.K)
	}
	return e.open(ctx, shared.set, shardID), nil
}

// open starts a run on a state off the free list, and decides here,
// once, whether goroutines share the run: a run opened against a shared
// set (NewParallelRun) may be stepped by several, and Whirlpool-M brings
// its own. With topk nil the run offers into its own reset set, takes no
// queue lock and, having no sibling shards, skips the per-prune
// threshold-source attribution; unless Whirlpool-M shares it, it is
// exclusive to the calling goroutine besides — one unlocked freelist, an
// unlocked top-k set and plain counters.
func (e *Engine) open(ctx context.Context, topk *topkSet, shardID int) *ParallelRun {
	sharded := topk != nil
	shared := sharded || e.cfg.Algorithm == WhirlpoolM
	p := acquireState(e.query.Size(), shared)
	p.q = &p.sq
	if !sharded {
		p.q, topk = &p.sq.pq, p.topk
		topk.reset(e.cfg.K, e.x.Threshold, e.x.Threshold > 0)
		topk.locked = shared
	}
	p.r = run{Engine: e, topk: topk, arena: p.arena, shardID: int32(shardID), sharded: sharded, ctx: ctx, done: ctx.Done()}
	p.r.stats.shared = shared
	p.r.lastThreshold.Store(math.Float64bits(math.Inf(-1)))
	p.whole.Store(0)
	p.doneFlag.Store(false)
	p.start = time.Time{}
	return p
}

// Seed publishes the root cursor in the run's queue, from which Step
// materialises roots as they come due. It must be called exactly once,
// before any Step. A run with no root candidates, or whose roots a warm
// shared threshold already rules out, is done on return. An indivisible
// algorithm seeds its own roots; Seed only offers it up for claiming.
func (p *ParallelRun) Seed() {
	p.start = time.Now()
	p.r.traceStart()
	if p.r.cfg.Algorithm != WhirlpoolS {
		p.whole.Store(1)
	} else if p.q.seed(p.r.seedRoots()) {
		p.markDone()
	}
}

// Step pops a batch of up to budget matches from the run's queue —
// pulling roots from the cursor as they come due — and takes each
// through the step kernel: routed, served, its survivors re-queued. It
// returns how many matches it consumed; 0 means the queue was
// momentarily empty (the run is done only once IsDone reports true —
// other workers may still be about to re-queue survivors). Safe for
// concurrent use, one Scratch per worker. Cancellation is polled on
// every match, so a cancelled run stops within one batch; the rest of
// the batch is released with the live count kept exact.
// +whirllint:hotpath
func (p *ParallelRun) Step(ws *Scratch, budget int) int {
	if p.whole.Load() != 0 {
		return p.stepWhole(ws)
	}
	r := &p.r
	if budget < 1 {
		budget = 1
	}
	batch, done := p.q.popBatch(ws.batch[:0], budget)
	ws.batch = batch
	for i, m := range batch {
		if r.cancelled() {
			for _, rest := range batch[i:] {
				r.release(rest)
			}
			done = p.q.settle(r, nil, len(batch)-i)
			batch = batch[:i]
			break
		}
		var surv []*match
		if sid := r.route(m); sid != 0 {
			if r.cfg.Trace != nil {
				r.traceDepth(-1, p.q.len())
			}
			surv = r.serve(m, sid, ws, false)
		}
		done = p.q.settle(r, surv, 1)
	}
	if done {
		p.markDone()
	}
	return len(batch)
}

// stepWhole runs an indivisible algorithm to its end on the first
// caller's goroutine, with that caller's Scratch. It consumes no queued
// matches, so it reports 0 and never reads as a steal.
// +whirllint:allocok once per run, not per match: Whirlpool-M buys its queues and goroutines, a LockStep its alive slices
func (p *ParallelRun) stepWhole(ws *Scratch) int {
	if !p.whole.CompareAndSwap(1, 2) {
		return 0
	}
	r := &p.r
	if alg := r.cfg.Algorithm; alg == WhirlpoolM {
		r.runM()
	} else {
		r.runLockStep(ws, alg == LockStep)
	}
	// A cancelled run strands matches wherever it stopped: not done.
	if !r.cancelled() {
		p.markDone()
	}
	return 0
}

// markDone records the run's completion exactly once.
func (p *ParallelRun) markDone() {
	if p.doneFlag.CompareAndSwap(false, true) {
		p.doneAtNS.Store(time.Since(p.start).Nanoseconds())
	}
}

// IsDone reports whether every match of the run has been consumed —
// completed, pruned, or dead — so no Step can ever find work again.
func (p *ParallelRun) IsDone() bool { return p.doneFlag.Load() }

// Depth samples the router queue's depth: the work-stealing load
// signal. An unfinished root cursor, or an unclaimed indivisible run,
// counts as one queued item, so a run that is not done but has nothing
// in flight never reads 0.
func (p *ParallelRun) Depth() int {
	if p.whole.Load() == 1 {
		return 1
	}
	return p.q.len()
}

// Created returns how many matches the run has created so far — the
// per-shard feedback signal the steal policy breaks depth ties with.
func (p *ParallelRun) Created() int64 { return p.r.stats.load(ctrMatchesCreated) }

// drive is the lifecycle's middle on the calling goroutine: budget 1 is
// Whirlpool-S's own sequence — pop the best match, one server
// operation, push the survivors. With nobody else stepping, a Step that
// consumed nothing leaves the run either done or cancelled.
func (p *ParallelRun) drive() {
	p.Seed()
	for !p.IsDone() {
		if p.Step(&p.ws, 1) == 0 && p.r.cancelled() {
			break
		}
	}
}

// finish closes the run's books after the last Step returned: it
// snapshots the stats (Duration is seed-to-done wall clock) and emits
// the RunEnd trace event. A cancelled run is counted as aborted and
// answered with the context's error, its partial work discarded; a
// completed one folds its stats into the engine's cumulative totals.
func (p *ParallelRun) finish() (Stats, error) {
	r := &p.r
	stats := r.stats.snapshot()
	switch {
	case p.start.IsZero():
		// Never seeded (cancelled before any work).
	case p.IsDone():
		stats.Duration = time.Duration(p.doneAtNS.Load())
	default:
		stats.Duration = time.Since(p.start)
	}
	err := r.ctx.Err()
	e := r.Engine
	e.totalsMu.Lock()
	if err != nil {
		e.totals.Aborted++
	} else {
		e.totals.Runs++
		e.totals.Stats.Add(stats)
	}
	e.totalsMu.Unlock()
	if t := r.cfg.Trace; t != nil {
		answers := 0
		if err == nil {
			answers = len(r.topk.answers())
		}
		t.RunEnd(obs.RunSummary{
			ServerOps:       stats.ServerOps,
			JoinComparisons: stats.JoinComparisons,
			MatchesCreated:  stats.MatchesCreated,
			Roots:           stats.Roots,
			Pruned:          stats.Pruned,
			PrunedRemote:    stats.PrunedRemote,
			Answers:         answers,
			DurationUS:      stats.Duration.Microseconds(),
			Aborted:         err != nil,
		})
	}
	if err != nil {
		return Stats{}, err
	}
	return stats, nil
}

// Finish closes the run out after every worker has stopped stepping
// (see finish) and hands its state back for reuse. When the run's
// context was cancelled, the context's error is returned, mirroring
// RunContext. Call it exactly once.
func (p *ParallelRun) Finish() (Stats, error) {
	defer p.release()
	return p.finish()
}
