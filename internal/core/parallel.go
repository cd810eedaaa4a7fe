package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// ParallelRun is one evaluation of an engine, and the only way an
// engine executes: NewParallelRun or NewShardRun → Seed (exactly once)
// → Step until IsDone or the context is cancelled → Finish (exactly
// once, after the last Step returned). Drive is Seed and that loop on
// the calling goroutine, as RunContext runs it; the sharded executor
// (internal/shard) drives each shard's run whole on one pool worker.
// A run has one stepper: Seed, Step, IsDone and Finish are called from
// one goroutine at a time, never concurrently.
//
// Whirlpool-S and LockStep runs are stepped a batch of queued matches at
// a time; the two differ only in the order the queue hands matches out.
// Whirlpool-M owns its control flow: the first Step after Seed runs it
// to its end on goroutines of its own, and returns 0.
//
// A run opened by NewParallelRun offers into and prunes against a
// top-k set other shards' runs share, whose threshold is at all times a
// lower bound on the true k-th score (see DESIGN.md, one kernel, thin
// drivers); its queue, arena and counters are as exclusive as
// RunContext's.
//
// A ParallelRun is also everything a run buys that can outlive it —
// arena slabs, RunContext's own top-k set, the heap's backing array,
// the driver's scratch. It idles between runs in a bounded free list
// keyed by binding width alone: global, not per engine (a daemon
// caches hundreds of engines and runs a few at once), and a plain
// list, not a sync.Pool, so that what a request allocates does not
// depend on when the collector last ran. Finish hands it back: no
// method may be called on it afterwards.
type ParallelRun struct {
	r     run
	arena *matchArena
	topk  *topkSet // an exclusive run's own set
	q     pq       // heap, held match, cursor and live count; the heap's array stays
	ws    Scratch  // Drive's, and LockStep's Seed's
	whole bool     // a seeded Whirlpool-M run its first Step has yet to run
	shard bool     // one shard's run: Finish leaves the engine's totals alone
	done  bool
	took  time.Duration // seed to done, once done
	start time.Time
}

// NewParallelRun prepares a run of the engine over all its roots
// against shared, attributed to shardID. The context governs
// cancellation of every subsequent Seed/Step; Finish reports its error
// if it fires.
func (e *Engine) NewParallelRun(ctx context.Context, shared *SharedTopK, shardID int) (*ParallelRun, error) {
	if shared.set.k != e.cfg.K {
		return nil, fmt.Errorf("core: shared top-k capacity %d != Config.K %d", shared.set.k, e.cfg.K)
	}
	return e.open(ctx, shared.set, shardID, 0, len(e.roots)), nil
}

// NewShardRun prepares shard s of an evaluation in p shards against
// shared: the run covers the s-th of p equal-count, contiguous slices of
// the engine's roots in document order, so the p runs together offer
// every root exactly once, each pruning against the one shared
// threshold. A shard's Finish returns its stats but leaves the engine's
// totals alone: the caller records the whole evaluation once (Record).
func (e *Engine) NewShardRun(ctx context.Context, shared *SharedTopK, s, p int) (*ParallelRun, error) {
	if shared.set.k != e.cfg.K {
		return nil, fmt.Errorf("core: shared top-k capacity %d != Config.K %d", shared.set.k, e.cfg.K)
	}
	if s < 0 || s >= p {
		return nil, fmt.Errorf("core: shard %d of %d", s, p)
	}
	n := len(e.roots)
	r := e.open(ctx, shared.set, s, s*n/p, (s+1)*n/p)
	r.shard = true
	return r, nil
}

// open starts a run over roots[lo:hi] on a state off the free list, and
// decides here, once, whether goroutines share the run: only
// Whirlpool-M's, which brings its own and locks the arena. Any other
// run is exclusive to its one stepper — the plain queue, the arena
// unlocked and plain counters — and with topk nil it offers into its
// own reset set, unlocked, and, having no sibling shards, skips the
// per-prune threshold-source attribution.
func (e *Engine) open(ctx context.Context, topk *topkSet, shardID, lo, hi int) *ParallelRun {
	sharded := topk != nil
	shared := e.cfg.Algorithm == WhirlpoolM
	p := acquireState(e.query.Size())
	p.arena.locked = shared
	if !sharded {
		topk = p.topk
		topk.reset(e.cfg.K, e.x.Threshold, e.x.Threshold > 0)
		topk.locked = shared
	}
	p.r = run{Engine: e, topk: topk, arena: p.arena, lo: lo, hi: hi, at: p.r.at, shardID: int32(shardID), sharded: sharded, ctx: ctx, done: ctx.Done()}
	p.r.stats.shared = shared
	p.r.lastThreshold.Store(math.Float64bits(math.Inf(-1)))
	p.q.phase = -1
	p.whole, p.shard, p.done, p.took = false, false, false, 0
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
// when the first Step runs it (runM).
func (p *ParallelRun) Seed() {
	p.start = time.Now()
	r := &p.r
	r.traceStart()
	var done bool
	switch alg := r.cfg.Algorithm; alg {
	case WhirlpoolS:
		done = p.q.seed(r.seedRoots(true))
	case WhirlpoolM:
		p.whole = true
	default:
		alive := p.ws.batch[:0]
		r.seedRoots(false).drain(func(m *match) {
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
// (stepPhase); Whirlpool-M runs whole (runM). It returns how many queued
// matches it consumed: with one stepper, 0 means the run is done or
// cancelled. Cancellation is polled on every match, so a cancelled run
// stops within one batch; the rest of the batch is released with the
// live count kept exact.
func (p *ParallelRun) Step(ws *Scratch, budget int) int {
	r := &p.r
	if budget < 1 {
		budget = 1
	}
	switch r.cfg.Algorithm {
	case WhirlpoolS:
	case WhirlpoolM:
		if p.whole {
			p.whole = false
			r.runM()
			// A cancelled run strands matches wherever it stopped: not done.
			if !r.cancelled() {
				p.markDone()
			}
		}
		return 0
	default:
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
// past the server (rootCursor's segRest or segDeleted) is carried on untouched,
// any other is served; what is left is carried into the next phase. A
// cancelled run retires the rest of its batch without opening a phase,
// so it never reads done.
func (p *ParallelRun) stepPhase(ws *Scratch, budget int) int {
	r := &p.r
	batch, _ := p.q.popBatch(ws.batch[:0], budget)
	ws.batch = batch
	if len(batch) == 0 {
		return 0
	}
	sid := r.order[p.q.phase]
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
		why := survives
		if !keepAll {
			why = r.prunable(m, unchecked)
		}
		var surv []*match
		switch {
		case why != survives:
			r.drop(m, why)
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

// markDone records the run's completion.
func (p *ParallelRun) markDone() {
	p.done, p.took = true, time.Since(p.start)
}

// IsDone reports whether every match of the run has been consumed —
// completed, pruned, or dead — so no Step can ever find work again.
func (p *ParallelRun) IsDone() bool { return p.done }

// Drive seeds the run and steps it on the calling goroutine until it is
// done or cancelled, with budget 1: Whirlpool-S's own sequence — pop the
// best match, one server operation, push the survivors — and
// LockStep's, one match of the phase at a time. With nobody else
// stepping, a Step that consumed nothing leaves the run either done or
// cancelled.
func (p *ParallelRun) Drive() {
	p.Seed()
	for !p.done {
		if p.Step(&p.ws, 1) == 0 && p.r.cancelled() {
			break
		}
	}
}

// finish closes the run's books after the last Step returned: it
// snapshots the stats (Duration is seed-to-done wall clock) and emits
// the RunEnd trace event. A cancelled run is answered with the
// context's error, its partial work discarded. Unless it is one shard's
// run, it is recorded in the engine's totals.
func (p *ParallelRun) finish() (Stats, error) {
	r := &p.r
	stats := r.stats.snapshot()
	switch {
	case p.start.IsZero():
		// Never seeded (cancelled before any work).
	case p.done:
		stats.Duration = p.took
	default:
		stats.Duration = time.Since(p.start)
	}
	err := r.ctx.Err()
	if !p.shard {
		r.Record(stats, err)
	}
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

// Finish closes the run out after its last Step (see finish) and hands its state back for reuse. When the run's
// context was cancelled, the context's error is returned, mirroring
// RunContext. Call it exactly once.
func (p *ParallelRun) Finish() (Stats, error) {
	defer p.release()
	return p.finish()
}
