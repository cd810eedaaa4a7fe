package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// stealQueue is the concurrent router queue of a ParallelRun: the
// single-threaded pq — heap, root cursor and all — behind a mutex, with
// a batch dequeue so a stealing worker amortizes one lock acquisition
// over a whole grab of matches. It is a sanctioned match holder — a
// queued match is owned by the queue until popped.
//
// live counts the run's outstanding work: matches queued or held by a
// stepping worker, plus one for the root cursor until it is exhausted
// or cut. Children are counted in before their parent is counted out,
// pulled roots before the cursor, so it reaches zero only when the run
// is done.
// +whirllint:matchowner
type stealQueue struct {
	mu sync.Mutex
	pq
	live atomic.Int64
}

// +whirllint:hotpath
func (q *stealQueue) push(m *match, priority float64) {
	q.mu.Lock()
	q.pq.push(m, priority)
	q.mu.Unlock()
}

// popBatch appends up to max matches — best priority first — to dst and
// returns the extended slice. One lock acquisition covers the whole
// batch, cursor advance included: this is the steal-safe dequeue the
// sharded executor's work stealing is built on. Ownership of every
// returned match transfers to the caller. Roots the cursor pushed and
// its own retirement are settled into live under the lock — a thief
// must never find a pulled root queued but uncounted — and done reports
// that this settled the run's last unit.
// +whirllint:hotpath
func (q *stealQueue) popBatch(dst []*match, max int) (out []*match, done bool) {
	q.mu.Lock()
	queued, had, streaming := len(q.h), len(dst), q.roots != nil
	if streaming {
		q.pull() // settles a cursor with nothing to give even when max is 0
	}
	for len(dst) < max {
		m, ok := q.pop()
		if !ok {
			break
		}
		dst = append(dst, m)
	}
	if streaming {
		delta := int64(len(q.h) + len(dst) - had - queued)
		if q.roots == nil {
			delta--
		}
		done = delta != 0 && q.live.Add(delta) == 0
	}
	q.mu.Unlock()
	return dst, done
}

// len samples the queue's depth — the steal policy's load signal. An
// unfinished cursor counts as one item, so a queue that can still
// produce work never reads as empty. Stale the moment the lock is
// released, which is fine for a heuristic.
func (q *stealQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.roots != nil {
		return len(q.h) + 1
	}
	return len(q.h)
}

// ParallelRun is one engine evaluation opened up for external,
// multi-goroutine scheduling: instead of looping to completion inside
// RunShared, the run exposes its router queue so any number of workers
// can pop batches of alive partial matches and process them through the
// engine's servers concurrently — the primitive behind the sharded
// executor's match-level work stealing (internal/shard). Only
// Whirlpool-S runs can be parallelized this way; the other algorithms
// own their control flow.
//
// Protocol: NewParallelRun → Seed (exactly once) → any number of
// concurrent Step calls (each worker with its own Scratch) until IsDone
// or the context is cancelled → Finish (exactly once, after the last
// Step returned).
//
// The run's arena uses the sharded, locked freelists (as Whirlpool-M
// does), so a match carved by one worker and released by another —
// exactly what a steal produces — returns to its home freelist shard
// without racing. Answer equivalence is unaffected by which worker
// processes a match: offers and prunes go through the same shared
// top-k set, whose threshold is a lower bound on the true k-th score
// at all times (see DESIGN.md, sharded execution).
type ParallelRun struct {
	r        run
	st       *runState // nil once Finish has handed it back
	q        stealQueue
	doneFlag atomic.Bool
	doneAtNS atomic.Int64
	start    time.Time
}

// NewParallelRun prepares a steal-capable run of the engine against
// shared, attributed to shardID. The context governs cancellation of
// every subsequent Seed/Step; Finish reports its error if it fires.
func (e *Engine) NewParallelRun(ctx context.Context, shared *SharedTopK, shardID int) (*ParallelRun, error) {
	if e.cfg.Algorithm != WhirlpoolS {
		return nil, fmt.Errorf("core: parallel runs require Whirlpool-S, got %v", e.cfg.Algorithm)
	}
	if shared.set.k != e.cfg.K {
		return nil, fmt.Errorf("core: shared top-k capacity %d != Config.K %d", shared.set.k, e.cfg.K)
	}
	// Concurrent workers get and release matches from any goroutine, so
	// the state's arena always uses the locked, sharded freelists here.
	p := &ParallelRun{st: acquireState(e.query.Size(), true, e.cfg.DisableReuse)}
	e.initRun(ctx, &p.r, p.st.arena, shared.set, shardID, true)
	p.q.h = p.st.heap[:0]
	return p, nil
}

// Seed publishes the root cursor in the run's queue, from which Step
// materialises roots as they come due. It must be called exactly once,
// before any Step. A run with no root candidates, or whose roots a warm
// shared threshold already rules out, is done on return.
func (p *ParallelRun) Seed() {
	p.start = time.Now()
	p.r.traceStart()
	p.q.mu.Lock()
	p.q.roots = p.r.seedRoots()
	p.q.live.Store(1) // the cursor
	p.q.mu.Unlock()
	if _, done := p.q.popBatch(nil, 0); done {
		p.markDone()
	}
}

// Step pops a batch of up to budget matches from the run's queue and
// processes each through its next server, offering into the shared
// top-k set and re-queueing surviving extensions. An empty heap is no
// obstacle while the root cursor has roots left: the pop pulls them. It
// returns how many matches it consumed; 0 means the queue was
// momentarily empty (the run is done only once IsDone reports true —
// other workers may still be about to re-queue survivors). Safe for
// concurrent use, one Scratch per worker. Cancellation is polled on
// every match, so a cancelled run stops within one batch; the
// unprocessed remainder is released back to the arena with the live
// count kept exact.
// +whirllint:hotpath
func (p *ParallelRun) Step(ws *Scratch, budget int) int {
	r := &p.r
	if budget < 1 {
		budget = 1
	}
	batch, done := p.q.popBatch(ws.batch[:0], budget)
	ws.batch = batch
	if done {
		p.markDone()
	}
	processed := 0
	for i, m := range batch {
		if r.cancelled() {
			for _, rest := range batch[i:] {
				r.release(rest)
			}
			p.liveAdd(int64(i - len(batch)))
			return processed
		}
		processed++
		// currentTopK may have grown since the match was queued.
		if r.prunable(m) {
			r.prune(1)
			r.release(m)
			p.liveAdd(-1)
			continue
		}
		sid := r.nextServer(m)
		r.traceRoute(m, sid)
		if r.cfg.Trace != nil {
			r.traceDepth(-1, p.q.len())
		}
		surv := ws.surv[:0]
		for _, ext := range r.process(m, sid, ws) {
			if r.checkTopK(ext) {
				surv = append(surv, ext)
			} else {
				r.release(ext)
			}
		}
		ws.surv = surv
		// Extensions copied everything they need out of the parent;
		// recycle it before handing the survivors on.
		r.release(m)
		if len(surv) > 0 {
			// Children in before the parent out: live can't hit zero
			// while this match's offspring are mid-flight.
			p.q.live.Add(int64(len(surv)))
			for _, s := range surv {
				p.q.push(s, r.priority(s, -1))
			}
		}
		p.liveAdd(-1)
	}
	return processed
}

// liveAdd adjusts the live-match count and marks the run done when it
// reaches zero.
// +whirllint:hotpath
func (p *ParallelRun) liveAdd(d int64) {
	if p.q.live.Add(d) == 0 {
		p.markDone()
	}
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
// signal. An unfinished root cursor counts as one queued item, so a
// run that is not done but has nothing in flight never reads 0.
func (p *ParallelRun) Depth() int { return p.q.len() }

// Created returns how many matches the run has created so far — the
// per-shard feedback signal the steal policy breaks depth ties with.
func (p *ParallelRun) Created() int64 { return p.r.stats.matchesCreated.Load() }

// Finish closes the run out after every worker has stopped stepping:
// it snapshots the stats (Duration is seed-to-done wall clock), folds
// them into the engine's cumulative totals, emits the RunEnd trace
// event and hands the run's state back for reuse. When the run's
// context was cancelled, the partial work is discarded and the
// context's error returned, mirroring RunContext. Call it exactly once.
func (p *ParallelRun) Finish() (Stats, error) {
	stats := p.r.stats.snapshot()
	switch {
	case p.start.IsZero():
		// Never seeded (cancelled before any work).
	case p.IsDone():
		stats.Duration = time.Duration(p.doneAtNS.Load())
	default:
		stats.Duration = time.Since(p.start)
	}
	if st := p.st; st != nil {
		p.st = nil
		st.heap, p.q.h = p.q.h, nil
		st.release(p.IsDone())
	}
	return p.r.finish(stats)
}
