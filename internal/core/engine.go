package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
)

// Engine evaluates top-k queries for one (document, query, config)
// combination. It precomputes the server plans (Algorithm 1), the
// per-server maximum contributions backing the maximum-possible-final
// bound, and the fanout statistics the size-based router uses. An Engine
// is immutable after New — except for the atomic cumulative totals
// behind Totals — and safe for repeated and concurrent Run calls.
type Engine struct {
	cfg   Config
	ix    index.Source
	query *pattern.Query
	plans []*relax.ServerPlan

	maxContrib  []float64 // per query node
	minContrib  []float64
	expContrib  []float64
	fanout      []float64 // expected extensions per satisfying root
	satisfyProb []float64 // fraction of roots with ≥1 candidate
	sumMax      float64   // Σ maxContrib over non-root nodes
	allVisited  uint64
	order       []int             // static order (defaulted)
	vts         []index.ValueTest // per-node content predicates

	totals engineTotals // cumulative across runs, atomic
}

// engineTotals accumulates per-run Stats across the engine's lifetime
// with atomics, so concurrent RunContext calls can share it. It backs
// the per-engine cumulative stats whirlpoold serves in /stats.
type engineTotals struct {
	runs            atomic.Int64
	aborted         atomic.Int64
	serverOps       atomic.Int64
	joinComparisons atomic.Int64
	matchesCreated  atomic.Int64
	pruned          atomic.Int64
	prunedRemote    atomic.Int64
	durationNS      atomic.Int64
}

func (t *engineTotals) add(s Stats) {
	t.runs.Add(1)
	t.serverOps.Add(s.ServerOps)
	t.joinComparisons.Add(s.JoinComparisons)
	t.matchesCreated.Add(s.MatchesCreated)
	t.pruned.Add(s.Pruned)
	t.prunedRemote.Add(s.PrunedRemote)
	t.durationNS.Add(int64(s.Duration))
}

// Totals is a point-in-time snapshot of an engine's cumulative
// instrumentation: the sums of every completed run's Stats (the paper's
// Section 6.2.3 measures) plus run counts. Aborted counts cancelled
// runs, whose partial work is not included in the sums.
type Totals struct {
	Runs            int64
	Aborted         int64
	ServerOps       int64
	JoinComparisons int64
	MatchesCreated  int64
	Pruned          int64
	PrunedRemote    int64
	Duration        time.Duration
}

// Totals returns the engine's cumulative statistics over all completed
// RunContext calls. Safe for concurrent use with in-flight runs.
func (e *Engine) Totals() Totals {
	return Totals{
		Runs:            e.totals.runs.Load(),
		Aborted:         e.totals.aborted.Load(),
		ServerOps:       e.totals.serverOps.Load(),
		JoinComparisons: e.totals.joinComparisons.Load(),
		MatchesCreated:  e.totals.matchesCreated.Load(),
		Pruned:          e.totals.pruned.Load(),
		PrunedRemote:    e.totals.prunedRemote.Load(),
		Duration:        time.Duration(e.totals.durationNS.Load()),
	}
}

// New validates cfg and builds an engine for query q over the indexed
// document ix.
func New(ix index.Source, q *pattern.Query, cfg Config) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(q.Size()); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		ix:         ix,
		query:      q,
		maxContrib: make([]float64, q.Size()),
		minContrib: make([]float64, q.Size()),
		expContrib: make([]float64, q.Size()),
		vts:        make([]index.ValueTest, q.Size()),
	}
	if p := cfg.Plan; p != nil {
		if err := p.checkAgainst(q, &cfg); err != nil {
			return nil, err
		}
		e.plans, e.fanout, e.satisfyProb = p.Plans, p.Fanout, p.SatisfyProb
	} else {
		// No plan: run the statistics pass over the source this engine
		// probes, so a per-shard engine routes by its own part's numbers.
		e.plans = relax.BuildPlans(q, cfg.Relax)
		e.fanout, e.satisfyProb = routingStats(e.plans, score.CollectStats(ix, nil, q))
	}
	for id, n := range q.Nodes {
		e.vts[id] = index.Test(n.ValueOp, n.Value)
	}
	for id := 0; id < q.Size(); id++ {
		e.maxContrib[id] = cfg.Scorer.MaxContribution(id)
		e.minContrib[id] = cfg.Scorer.MinContribution(id)
		e.expContrib[id] = cfg.Scorer.ExpectedContribution(id)
		if e.maxContrib[id] < 0 {
			return nil, fmt.Errorf("core: negative max contribution for node %d", id)
		}
		e.allVisited |= 1 << uint(id)
		if id > 0 {
			e.sumMax += e.maxContrib[id]
		}
	}
	switch {
	case cfg.Order != nil:
		e.order = cfg.Order
	case cfg.Plan != nil && len(cfg.Plan.Order) == q.Size()-1:
		e.order = cfg.Plan.Order
	default:
		e.order = make([]int, 0, q.Size()-1)
		for id := 1; id < q.Size(); id++ {
			e.order = append(e.order, id)
		}
	}
	return e, nil
}

// Query returns the engine's tree pattern.
func (e *Engine) Query() *pattern.Query { return e.query }

// Run executes the configured algorithm and returns the top-k answers
// with instrumentation.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: when ctx is cancelled the
// evaluation winds down promptly and ctx's error is returned (any
// partial result is discarded).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	shared := NewSharedTopK(e.cfg.K, e.cfg.Threshold)
	stats, err := e.runShared(ctx, shared, 0, false)
	if err != nil {
		return nil, err
	}
	return &Result{Answers: shared.Answers(), Stats: stats}, nil
}

// RunShared executes the configured algorithm against a caller-supplied
// top-k set, offering guaranteed scores into it and pruning against its
// threshold. It is the building block of sharded execution: several
// engines over disjoint data shards run concurrently against one
// SharedTopK (each with a distinct shardID for prune attribution), and
// the set's Answers — not any single run's — are the merged result.
// The set's capacity must equal the engine's Config.K.
func (e *Engine) RunShared(ctx context.Context, shared *SharedTopK, shardID int) (Stats, error) {
	return e.runShared(ctx, shared, shardID, true)
}

// runShared is the common run body. sharded records whether sibling
// shards may share the top-k set: standalone runs (RunContext) pass
// false and skip the per-prune threshold-source attribution.
func (e *Engine) runShared(ctx context.Context, shared *SharedTopK, shardID int, sharded bool) (Stats, error) {
	if shared.set.k != e.cfg.K {
		return Stats{}, fmt.Errorf("core: shared top-k capacity %d != Config.K %d", shared.set.k, e.cfg.K)
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	r := &run{
		Engine:  e,
		topk:    shared.set,
		arena:   newMatchArena(e.query.Size(), e.cfg.Algorithm == WhirlpoolM, e.cfg.DisableReuse),
		shardID: int32(shardID),
		sharded: sharded,
		ctx:     ctx,
	}
	r.lastThreshold.Store(math.Float64bits(math.Inf(-1)))
	if t := e.cfg.Trace; t != nil {
		t.RunStart(obs.RunInfo{
			Algorithm:  e.cfg.Algorithm.String(),
			Routing:    e.cfg.Routing.String(),
			Queue:      e.cfg.Queue.String(),
			K:          e.cfg.K,
			QueryNodes: e.query.Size(),
		})
	}
	start := time.Now()
	switch e.cfg.Algorithm {
	case WhirlpoolS:
		r.runS()
	case WhirlpoolM:
		r.runM()
	case LockStep:
		r.runLockStep(true)
	case LockStepNoPrune:
		r.runLockStep(false)
	default:
		return Stats{}, fmt.Errorf("core: unknown algorithm %d", e.cfg.Algorithm)
	}
	stats := r.stats.snapshot()
	stats.Duration = time.Since(start)
	if err := ctx.Err(); err != nil {
		e.totals.aborted.Add(1)
		if t := e.cfg.Trace; t != nil {
			t.RunEnd(runSummary(stats, 0, true))
		}
		return Stats{}, err
	}
	e.totals.add(stats)
	if t := e.cfg.Trace; t != nil {
		t.RunEnd(runSummary(stats, len(shared.set.answers()), false))
	}
	return stats, nil
}

func runSummary(s Stats, answers int, aborted bool) obs.RunSummary {
	return obs.RunSummary{
		ServerOps:       s.ServerOps,
		JoinComparisons: s.JoinComparisons,
		MatchesCreated:  s.MatchesCreated,
		Pruned:          s.Pruned,
		PrunedRemote:    s.PrunedRemote,
		Answers:         answers,
		DurationUS:      s.Duration.Microseconds(),
		Aborted:         aborted,
	}
}

// guaranteedPartial reports whether a partial match's current score is a
// guaranteed lower bound for its root (true under leaf deletion: the
// match completed by deleting every remaining node is a valid answer).
func (e *Engine) guaranteedPartial() bool { return e.cfg.Relax.Has(relax.LeafDeletion) }

// priority computes a match's queue priority under the configured
// discipline. serverID is the queue's server, or -1 for the router queue.
func (e *Engine) priority(m *match, serverID int) float64 {
	switch e.cfg.Queue {
	case QueueFIFO:
		return -float64(m.seq)
	case QueueCurrentScore:
		return m.score
	case QueueMaxNext:
		if serverID >= 0 {
			return m.score + e.maxContrib[serverID]
		}
		return m.maxFinal
	default: // QueueMaxFinal
		return m.maxFinal
	}
}

// spin burns CPU for d, simulating per-operation join cost (Figure 8).
// The deadline is computed once up front; the loop then busy-waits
// against the monotonic clock with no runtime.Gosched — yielding would
// let other server goroutines interleave and under-report the simulated
// cost. Bounded by d, so cancellation polling is not needed here.
// +whirllint:busywait
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// initialMatches evaluates the root server: every document node matching
// the root tag/value and the root's structural predicate spawns a partial
// match.
func (r *run) initialMatches() []*match {
	e := r.Engine
	rootNode := e.query.Root()
	plan := e.plans[0]
	cands := e.ix.NodesMatching(rootNode.Tag, e.vts[0])
	var out []*match
	virtual := dewey.ID{}
	for _, c := range cands {
		r.stats.joinComparisons.Add(1)
		variant := score.Exact
		if !plan.RootPath.HoldsExact(virtual, c.ID) {
			// /tag with a non-root binding: admissible only under edge
			// generalization of the root edge.
			if !e.cfg.Relax.Has(relax.EdgeGeneralization) {
				continue
			}
			variant = score.Relaxed
		}
		contrib := e.cfg.Scorer.Contribution(0, variant, c)
		m := r.arena.get()
		m.bindings[0] = c
		m.visited = 1
		m.score = contrib
		m.maxFinal = contrib + e.sumMax
		m.seq = r.nextSeq()
		r.stats.serverOps.Add(1)
		r.stats.matchesCreated.Add(1)
		out = append(out, m)
	}
	r.traceMatch(obs.MatchesSpawned, len(out))
	return out
}
