package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ExecOptions tunes the sharded executor's worker pool.
type ExecOptions struct {
	// Workers bounds the pool. 0 (the default) resolves to
	// min(GOMAXPROCS, shards): enough workers to saturate the cores the
	// runtime will actually schedule on, never more goroutines than
	// shards to schedule them over.
	Workers int
	// DisableStealing pins every shard to its owning worker: idle
	// workers park instead of pulling batches from loaded queues. The
	// A/B switch for the equivalence suite and for measuring what
	// stealing buys under skew.
	DisableStealing bool
	// StealBatch is how many matches one Step consumes per grab
	// (default 32): large enough to amortize the victim queue's lock,
	// small enough that cancellation and threshold growth stay prompt.
	StealBatch int
}

// defaultStealBatch is the per-grab match budget when ExecOptions
// leaves StealBatch zero.
const defaultStealBatch = 32

// SetExecOptions replaces the executor options. Call before the first
// run; the zero value restores the defaults.
func (e *Engines) SetExecOptions(opts ExecOptions) { e.opts = opts }

// resolveWorkers returns the pool bound for this Engines: the
// configured override, else min(GOMAXPROCS, shards), never below 1.
func (e *Engines) resolveWorkers() int {
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(e.engs) {
		w = len(e.engs)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// LastRunWorkers reports the most recent run's pool geometry: the
// worker bound it resolved and the peak number of worker goroutines
// observed running concurrently. Peak can never exceed the bound; the
// regression test for the old one-goroutine-per-shard fan-out pins
// both. Values are per-Engines and last-writer-wins under concurrent
// runs — a diagnostic, not a synchronization point.
func (e *Engines) LastRunWorkers() (bound, peak int) {
	return int(e.lastWorkers.Load()), int(e.lastPeak.Load())
}

// poolState is the shared state of one pooled evaluation.
type poolState struct {
	runs     []*core.ParallelRun
	workers  int
	batch    int
	stealing bool

	running atomic.Int64
	peak    atomic.Int64

	steals     atomic.Int64
	stolen     atomic.Int64
	stolenFrom []atomic.Int64 // per shard index: matches taken by non-owners
}

// runPooled evaluates a sharded query on a bounded worker pool with
// match-level work stealing. Each worker seeds and primarily
// serves the shards congruent to its index; once its own queues drain
// it pulls batches from the most loaded foreign queue, processing them
// through that shard's engine against the same shared top-k set. The
// per-shard stats and steal counters come back for merging.
func (e *Engines) runPooled(ctx context.Context, shared *core.SharedTopK) ([]core.Stats, *poolState, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &poolState{
		workers:    e.resolveWorkers(),
		batch:      e.opts.StealBatch,
		stealing:   !e.opts.DisableStealing,
		runs:       make([]*core.ParallelRun, len(e.engs)),
		stolenFrom: make([]atomic.Int64, len(e.engs)),
	}
	if st.batch < 1 {
		st.batch = defaultStealBatch
	}
	for i, rn := range e.engs {
		pr, err := rn.eng.NewParallelRun(runCtx, shared, rn.shard)
		if err != nil {
			return nil, nil, err
		}
		st.runs[i] = pr
	}

	var wg sync.WaitGroup
	for w := 0; w < st.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			poolWorker(runCtx, w, st)
		}(w)
	}
	wg.Wait()

	e.lastWorkers.Store(int64(st.workers))
	e.lastPeak.Store(st.peak.Load())

	// Finish every run, cancelled or not: it records the abort in the
	// engine's totals and hands the run's state back.
	stats := make([]core.Stats, len(st.runs))
	var first error
	for i, pr := range st.runs {
		s, err := pr.Finish()
		if err != nil && first == nil {
			first = err
		}
		stats[i] = s
	}
	if first != nil {
		return nil, nil, first
	}
	return stats, st, nil
}

// poolWorker is one bounded worker: it allocates its scratch, seeds
// the shards it owns, then enters the steal loop. Lifecycle is tied to
// the pool's WaitGroup in runPooled.
func poolWorker(ctx context.Context, w int, st *poolState) {
	raisePeak(&st.peak, st.running.Add(1))
	defer st.running.Add(-1)

	ws := core.NewScratch()
	// Seed own shards before working: every shard has exactly one owner
	// (workers ≥ 1), so every shard gets seeded exactly once, and an
	// unseeded shard has depth 0, so thieves leave it alone.
	for i := w; i < len(st.runs); i += st.workers {
		select {
		case <-ctx.Done():
			return
		default:
		}
		st.runs[i].Seed()
	}
	stealLoop(ctx, w, st, ws)
}

// raisePeak lifts the peak high-water mark to at least n. The loop
// terminates the moment another raiser has published an equal or higher
// peak, so contention only ever shortens it.
func raisePeak(peak *atomic.Int64, n int64) {
	for p := peak.Load(); n > p; p = peak.Load() {
		if peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Idle backoff: a worker that found no runnable shard yields first and
// naps once the pool has clearly outrun it, so waiting for in-flight
// matches on other workers never spins a core hot.
const (
	idleSpins = 64
	idleNap   = 5 * time.Microsecond
)

// stealLoop is the worker's steady state: pick a shard — own first,
// then the deepest foreign queue — and step a batch of its matches.
// Cancellation is polled every iteration here and every match inside
// Step, so a cancelled query stops within one batch. The loop body is
// allocation-free (the whirllint hotalloc gate walks it from this
// root).
// +whirllint:hotpath
func stealLoop(ctx context.Context, w int, st *poolState, ws *core.Scratch) {
	idles := 0
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		idx, stolen := st.pick(w)
		if idx < 0 {
			if st.allDone() {
				return
			}
			idles++
			if idles > idleSpins {
				time.Sleep(idleNap)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idles = 0
		n := st.runs[idx].Step(ws, st.batch)
		if n > 0 && stolen {
			st.steals.Add(1)
			st.stolen.Add(int64(n))
			st.stolenFrom[idx].Add(int64(n))
		}
	}
}

// pick chooses the next shard for worker w: any of its own shards with
// queued work first (no steal), otherwise — when stealing is enabled —
// the foreign shard with the deepest queue, ties broken toward the
// shard that has created the most matches (the hottest producer, the
// per-shard matches_created feedback). Depth counts an unfinished root
// cursor as one queued item, so depth 0 on a run that is not done means
// only that its remaining matches are in other workers' hands. Returns
// -1 when no queue has work right now; stolen reports whether the choice
// crosses ownership.
func (st *poolState) pick(w int) (idx int, stolen bool) {
	for i := w; i < len(st.runs); i += st.workers {
		r := st.runs[i]
		if !r.IsDone() && r.Depth() > 0 {
			return i, false
		}
	}
	if !st.stealing {
		return -1, false
	}
	best, bestDepth := -1, 0
	var bestCreated int64
	for i := range st.runs {
		r := st.runs[i]
		if r.IsDone() {
			continue
		}
		d := r.Depth()
		if d == 0 {
			continue
		}
		c := r.Created()
		if d > bestDepth || (d == bestDepth && c > bestCreated) {
			best, bestDepth, bestCreated = i, d, c
		}
	}
	if best < 0 {
		return -1, false
	}
	return best, best%st.workers != w
}

// allDone reports whether every shard run has consumed its last match.
func (st *poolState) allDone() bool {
	for _, r := range st.runs {
		if !r.IsDone() {
			return false
		}
	}
	return true
}
