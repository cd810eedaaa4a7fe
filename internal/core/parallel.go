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
// last Step returned). RunContext is that loop on the calling
// goroutine; the sharded executor (internal/shard) lets any number of
// pool workers Step concurrently, each with its own Scratch — the
// primitive behind its match-level work stealing.
//
// Whirlpool-S and LockStep runs are stepped a batch of queued matches at
// a time; the two differ only in the order the queue hands matches out.
// Whirlpool-M owns its control flow and is hosted as one indivisible
// step: the first Step after Seed claims the run and returns when it is
// over, anyone else's returns 0 at once.
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
	ws    Scratch     // the exclusive driver's, and LockStep's Seed's
	// whole hosts Whirlpool-M, the indivisible algorithm: 0 for the
	// others (and before Seed), 1 seeded and unclaimed, 2 claimed.
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
	p.sq.phase = -1
	p.whole.Store(0)
	p.doneFlag.Store(false)
	p.start = time.Time{}
	return p
}

// Seed puts the run's roots in its queue. It must be called exactly
// once, before any Step. Whirlpool-S publishes the root cursor, from
// which Step materialises roots as they come due; LockStep drains every
// root into its first phase — checked against the top-k set unless
// LockStep-NoPrun, which ranks only at the end. A run with no root
// candidates, or whose roots a warm shared threshold already rules out,
// is done on return. Whirlpool-M's router seeds a queue of its own
// once the run is claimed (runM); Seed only offers it up for claiming.
func (p *ParallelRun) Seed() {
	p.start = time.Now()
	r := &p.r
	r.traceStart()
	var done bool
	switch alg := r.cfg.Algorithm; alg {
	case WhirlpoolS:
		done = p.q.seed(r.seedRoots())
	case WhirlpoolM:
		p.whole.Store(1)
	default:
		alive := p.ws.batch[:0]
		r.seedRoots().drain(func(m *match) {
			if alg == LockStepNoPrune || r.checkTopK(m) {
				alive = append(alive, m)
			} else {
				r.release(m)
			}
		})
		p.ws.batch = alive[:0]
		done = p.q.carry(r, alive, 0)
	}
	if done {
		p.markDone()
	}
}

// Step pops a batch of up to budget matches from the run's queue and
// takes each through the step kernel. Whirlpool-S pulls roots from the
// cursor as they come due, routes each match and re-queues its
// survivors; LockStep passes each through the current phase's server
// (stepPhase). It returns how many matches it consumed; 0 means the
// queue was momentarily empty (the run is done only once IsDone reports
// true — other workers may still be about to re-queue survivors). Safe
// for concurrent use, one Scratch per worker. Cancellation is polled on
// every match, so a cancelled run stops within one batch; the rest of
// the batch is released with the live count kept exact.
// +whirllint:hotpath
func (p *ParallelRun) Step(ws *Scratch, budget int) int {
	if p.whole.Load() != 0 {
		return p.stepWhole()
	}
	r := &p.r
	if budget < 1 {
		budget = 1
	}
	if r.cfg.Algorithm != WhirlpoolS {
		return p.stepPhase(ws, budget)
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

// stepPhase is Step for LockStep, whose queue holds one phase at a time
// (pq.carry): each popped match passes the phase's server. One that is
// now prunable is dropped (LockStep-NoPrun prunes nothing), a root born
// past the server (rootCursor's second segment) is carried on untouched,
// any other is served; what is left is carried into the next phase. A
// cancelled run retires the rest of its batch without opening a phase,
// so it never reads done.
// +whirllint:hotpath
func (p *ParallelRun) stepPhase(ws *Scratch, budget int) int {
	r := &p.r
	batch, _ := p.q.popBatch(ws.batch[:0], budget)
	ws.batch = batch
	if len(batch) == 0 {
		return 0
	}
	// Read while holding a match of the phase, which cannot turn before
	// that match is carried.
	sid := r.order[p.sq.phase]
	keepAll := r.cfg.Algorithm == LockStepNoPrune
	done := false
	for i, m := range batch {
		if r.cancelled() {
			for _, rest := range batch[i:] {
				r.release(rest)
			}
			p.q.settle(r, nil, len(batch)-i)
			return i
		}
		var surv []*match
		switch {
		case !keepAll && r.prunable(m):
			r.drop(m)
		case m.isVisited(sid):
			ws.surv = append(ws.surv[:0], m)
			surv = ws.surv
		default:
			surv = r.serve(m, sid, ws, keepAll)
		}
		done = p.q.carry(r, surv, 1)
	}
	if done {
		p.markDone()
	}
	return len(batch)
}

// stepWhole runs Whirlpool-M to its end on the first caller's
// goroutine. It consumes no queued matches, so it reports 0 and never
// reads as a steal.
// +whirllint:allocok once per run, not per match: Whirlpool-M buys its queues and goroutines
func (p *ParallelRun) stepWhole() int {
	if !p.whole.CompareAndSwap(1, 2) {
		return 0
	}
	p.r.runM()
	// A cancelled run strands matches wherever it stopped: not done.
	if !p.r.cancelled() {
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
// signal. An unfinished root cursor, or an unclaimed Whirlpool-M run,
// counts as one queued item, so a run that is not done but has nothing
// in flight never reads 0. A LockStep run counts its current phase:
// the next one is not queued until this one is over.
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
// operation, push the survivors — and LockStep's, one match of the
// phase at a time. With nobody else stepping, a Step that
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
