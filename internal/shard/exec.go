// Package shard implements Whirlpool's sharded execution layer: a
// query's roots, in document order, are cut into P contiguous ranges of
// equal count, and P runs of the query's one core.Engine — one per
// range — evaluate it concurrently against a single shared global top-k
// set (core.SharedTopK). A high-scoring answer found by one run
// immediately raises the currentTopK threshold every other run prunes
// against, so the paper's adaptive-pruning insight (Section 5)
// parallelizes without weakening: every root is offered by exactly one
// run, the shared threshold is at all times a lower bound on the true
// global k-th best score, and results merge deterministically (score
// descending, document order ascending).
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
	"repro/internal/xmltree"
)

// Corpus is a document's one access path and a shard count. It is an
// index.Source by embedding that access path; NewEngines evaluates a
// query over it in Shards root ranges.
type Corpus struct {
	index.Source
	p int
}

// Split is New over a freshly built index of doc.
func Split(doc *xmltree.Document, p int) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	return New(index.Build(doc), p)
}

// New returns ix evaluated in p shards. Nothing is copied or indexed
// again: a shard is a range of each query's roots, cut per run.
func New(ix index.Source, p int) (*Corpus, error) {
	if p < 1 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 1, got %d", p)
	}
	return &Corpus{Source: ix, p: p}, nil
}

// Shards returns the shard count.
func (c *Corpus) Shards() int { return c.p }

// Engines evaluates one query over a corpus in its shard count of root
// ranges: one core.Engine, one core.NewShardRun per range, all offering
// into and pruning against a single core.SharedTopK per evaluation. Like
// core.Engine it is immutable after construction (except the engine's
// cumulative totals and the last run's pool geometry) and safe for
// repeated, concurrent RunContext calls.
type Engines struct {
	cfg core.Config
	eng *core.Engine
	p   int
	reg *obs.Registry

	// Most recent run's pool geometry, for LastRunWorkers.
	lastWorkers atomic.Int64
	lastPeak    atomic.Int64
}

// NewEngines builds the engine for q over the whole corpus. cfg is the
// standard engine configuration; cfg.Scorer must be built against the
// whole corpus, as must a cfg.Plan — one global scorer keeps scores,
// and therefore the shared threshold, comparable across shards.
func (c *Corpus) NewEngines(q *pattern.Query, cfg core.Config) (*Engines, error) {
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("shard: Config.Scorer is required (build it over the whole corpus)")
	}
	eng, err := core.New(c.Source, q, cfg)
	if err != nil {
		return nil, err
	}
	return &Engines{cfg: cfg, eng: eng, p: c.p}, nil
}

// ObserveInto registers per-run shard metrics (per-shard counters, run
// duration and skew histograms, merge latency) with reg. Call before the
// first run; a nil registry disables recording.
func (e *Engines) ObserveInto(reg *obs.Registry) { e.reg = reg }

// Shards returns the number of runs an evaluation is cut into.
func (e *Engines) Shards() int { return e.p }

// Totals returns the engine's cumulative statistics: one run per
// sharded evaluation, its counters summed over the shards and its
// Duration the evaluation's wall clock.
func (e *Engines) Totals() core.Totals { return e.eng.Totals() }

// RootVia names the root server's access path (core.Engine.RootVia),
// the same for every shard.
func (e *Engines) RootVia() string { return e.eng.RootVia() }

// Run evaluates the query over all shards concurrently and returns the
// merged result.
func (e *Engines) Run() (*core.Result, error) { return e.RunContext(context.Background()) }

// RunContext evaluates every shard against one fresh SharedTopK, so each
// shard's guaranteed scores immediately tighten the pruning threshold of
// all others, then merges: answers come from the shared set (the top-k
// of score descending, document order ascending, whichever shard ends
// first), stats are summed, Duration is the sharded wall clock. The
// evaluation is recorded in the engine's totals as one run.
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
		e.eng.Record(core.Stats{}, err)
		return nil, err
	}

	mergeStart := time.Now()
	res := &core.Result{Answers: shared.Answers()}
	mergeDur := time.Since(mergeStart)
	for _, s := range stats {
		res.Stats.Add(s)
	}
	res.Stats.Duration = time.Since(start)
	e.eng.Record(res.Stats, nil)
	e.observe(stats, peak, mergeDur)
	return res, nil
}

// observe records one run's per-shard metrics and emits per-shard
// summaries to a configured ShardSink; peak is the most workers the
// run's pool had running at once.
func (e *Engines) observe(stats []core.Stats, peak int64, mergeDur time.Duration) {
	sink, _ := e.cfg.Trace.(obs.ShardSink)
	var maxDur, sumDur time.Duration
	for s, st := range stats {
		if st.Duration > maxDur {
			maxDur = st.Duration
		}
		sumDur += st.Duration
		if sink != nil {
			sink.ShardRun(s, obs.RunSummary{
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
		shard := fmt.Sprintf("%d", s)
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
	// A high-water mark since boot: the most workers any run had at once.
	e.reg.Gauge("whirlpool_shard_workers_peak").Max(peak)
	e.reg.Histogram("whirlpool_shard_merge_duration_us").Observe(mergeDur.Microseconds())
	if n := len(stats); n > 0 && sumDur > 0 {
		// Skew: slowest shard over mean shard duration, in permille. A
		// shard's duration is its own run's seed-to-done wall clock on
		// the one worker that drove it, so this is the spread of
		// per-shard work.
		mean := sumDur / time.Duration(n)
		e.reg.Gauge("whirlpool_shard_skew_permille").Set(int64(maxDur * 1000 / mean))
	}
}
