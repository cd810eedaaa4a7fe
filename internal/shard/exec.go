package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/score"
)

// Engines evaluates one query over a partitioned corpus: one core.Engine
// per sub-source with root candidates, all offering into and pruning
// against a single core.SharedTopK per run. Like core.Engine it is
// immutable after construction (except the engines' cumulative totals) and
// safe for repeated, concurrent RunContext calls.
type Engines struct {
	cfg  core.Config
	engs []runner
	reg  *obs.Registry

	// Most recent run's pool geometry, for LastRunWorkers.
	lastWorkers atomic.Int64
	lastPeak    atomic.Int64
}

// runner pairs an engine with its shard id (the index of its member in
// the corpus's ShardSources — the spine, when present, is the last).
type runner struct {
	shard int
	eng   *core.Engine
}

// NewEngines builds the per-shard engines for q over the corpus. cfg is
// the standard engine configuration; cfg.Scorer must be built against
// the whole corpus (one global scorer keeps scores — and therefore the
// shared threshold — comparable across shards). Routing statistics are a
// whole-corpus quantity too (a member sees only its own postings,
// and the spine's lie in the parts): without cfg.Plan they are collected
// once over the corpus and handed to every shard as a plan compiled on
// the spot, its Order left nil so the ascending-id default holds.
// Members without a single root candidate are skipped: they cannot
// spawn a match. Each engine is a core.NewMember: a part may stream its
// roots from its own postings, the spine — whose postings lie in the
// parts — scans.
func (c *Corpus) NewEngines(q *pattern.Query, cfg core.Config) (*Engines, error) {
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("shard: Config.Scorer is required (build it over the whole corpus)")
	}
	if cfg.Plan == nil {
		plan, err := core.CompilePlan(score.CollectStats(c.Source, nil, q), q, cfg.Relax, cfg.Scorer, "")
		if err != nil {
			return nil, err
		}
		plan.Order = nil
		cfg.Plan = plan
	}
	root := q.Root()
	vt := index.Test(root.ValueOp, root.Value)
	e := &Engines{cfg: cfg}
	for shard, sub := range c.members {
		if len(sub.Ords(root.Tag, vt)) == 0 {
			continue
		}
		eng, err := core.NewMember(sub, q, cfg, shard == len(c.parts))
		if err != nil {
			return nil, err
		}
		e.engs = append(e.engs, runner{shard: shard, eng: eng})
	}
	return e, nil
}

// ObserveInto registers per-run shard metrics (per-shard counters, run
// duration and skew histograms, merge latency) with reg. Call before the
// first run; a nil registry disables recording.
func (e *Engines) ObserveInto(reg *obs.Registry) { e.reg = reg }

// Shards returns the number of participating engines.
func (e *Engines) Shards() int { return len(e.engs) }

// Run evaluates the query over all shards concurrently and returns the
// merged result.
func (e *Engines) Run() (*core.Result, error) { return e.RunContext(context.Background()) }

// RunContext evaluates every shard against one fresh SharedTopK, so
// each shard's guaranteed scores immediately tighten the pruning
// threshold of all others, then merges: answers come from the shared
// set (already deterministic — score descending, document order
// ascending), stats are summed, Duration is the sharded wall clock.
//
// Concurrency is bounded at min(GOMAXPROCS, shards) worker goroutines,
// each of which claims whole shards, one at a time, and drives each
// shard's core.ParallelRun to done (see pool.go and DESIGN.md, shard
// claiming).
func (e *Engines) RunContext(ctx context.Context) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shared := core.NewSharedTopK(e.cfg.K, 0)
	start := time.Now()
	stats, peak, err := e.runPooled(ctx, shared)
	if err != nil {
		return nil, err
	}

	mergeStart := time.Now()
	res := &core.Result{Answers: shared.Answers()}
	mergeDur := time.Since(mergeStart)
	for _, s := range stats {
		res.Stats.Add(s)
	}
	res.Stats.Duration = time.Since(start)
	e.observe(stats, peak, mergeDur)
	return res, nil
}

// observe records one run's per-shard metrics and emits per-shard
// summaries to a configured ShardSink; peak is the most workers the
// run's pool had running at once.
func (e *Engines) observe(stats []core.Stats, peak int64, mergeDur time.Duration) {
	sink, _ := e.cfg.Trace.(obs.ShardSink)
	var maxDur, sumDur time.Duration
	for i, rn := range e.engs {
		st := stats[i]
		if st.Duration > maxDur {
			maxDur = st.Duration
		}
		sumDur += st.Duration
		if sink != nil {
			sink.ShardRun(rn.shard, obs.RunSummary{
				ServerOps:       st.ServerOps,
				JoinComparisons: st.JoinComparisons,
				MatchesCreated:  st.MatchesCreated,
				Roots:           st.Roots,
				Pruned:          st.Pruned,
				PrunedRemote:    st.PrunedRemote,
				DurationUS:      st.Duration.Microseconds(),
			})
		}
		if e.reg == nil {
			continue
		}
		shard := fmt.Sprintf("%d", rn.shard)
		e.reg.Counter("whirlpool_shard_server_ops_total", "shard", shard).Add(st.ServerOps)
		e.reg.Counter("whirlpool_shard_matches_created_total", "shard", shard).Add(st.MatchesCreated)
		e.reg.Counter("whirlpool_shard_matches_pruned_total", "shard", shard).Add(st.Pruned)
		e.reg.Counter("whirlpool_shard_pruned_remote_total", "shard", shard).Add(st.PrunedRemote)
		e.reg.Histogram("whirlpool_shard_run_duration_us", "shard", shard).Observe(st.Duration.Microseconds())
	}
	if e.reg == nil {
		return
	}
	e.reg.Gauge("whirlpool_shard_workers").Set(e.lastWorkers.Load())
	e.reg.Gauge("whirlpool_shard_workers_peak").Set(peak)
	e.reg.Histogram("whirlpool_shard_merge_duration_us").Observe(mergeDur.Microseconds())
	if n := len(e.engs); n > 0 && sumDur > 0 {
		// Skew: slowest shard over mean shard duration, in permille. A
		// shard's duration is its own run's seed-to-done wall clock on
		// the one worker that drove it, so this is the spread of
		// per-shard work.
		mean := sumDur / time.Duration(n)
		e.reg.Gauge("whirlpool_shard_skew_permille").Set(int64(maxDur * 1000 / mean))
	}
}

// ShardTotal is one shard engine's cumulative instrumentation.
type ShardTotal struct {
	Shard int
	// RootVia is the shard engine's root access path (core.Engine.RootVia):
	// each part chooses its own, the spine always scans.
	RootVia string
	Totals  core.Totals
}

// ShardTotals snapshots every shard engine's cumulative totals across
// all completed runs, shard order.
func (e *Engines) ShardTotals() []ShardTotal {
	out := make([]ShardTotal, 0, len(e.engs))
	for _, rn := range e.engs {
		out = append(out, ShardTotal{Shard: rn.shard, RootVia: rn.eng.RootVia(), Totals: rn.eng.Totals()})
	}
	return out
}
