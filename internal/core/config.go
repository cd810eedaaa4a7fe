// Package core implements the Whirlpool engine (Section 5): per-query-node
// servers, the adaptive router, the shared top-k set, and the four
// evaluation algorithms compared in the paper — Whirlpool-S (single
// threaded), Whirlpool-M (multi-threaded, one goroutine per server),
// LockStep (all partial matches pass one server before the next) and
// LockStep-NoPrun (LockStep without score pruning).
package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/relax"
	"repro/internal/score"
)

// Algorithm selects the top-k evaluation strategy (Section 6.1.2).
type Algorithm int

const (
	// WhirlpoolS is the single-threaded adaptive strategy: one router
	// queue, partial matches processed in priority order, each routed
	// individually to its next server.
	WhirlpoolS Algorithm = iota
	// WhirlpoolM is the multi-threaded strategy: one goroutine per
	// server plus a router goroutine, with per-server priority queues.
	WhirlpoolM
	// LockStep processes every partial match through one server before
	// the next server is considered, pruning against the top-k set.
	LockStep
	// LockStepNoPrune is LockStep with pruning disabled: every partial
	// match is fully evaluated and the k best are selected at the end.
	// It bounds the maximum possible number of partial matches (Table 2).
	LockStepNoPrune
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case WhirlpoolS:
		return "Whirlpool-S"
	case WhirlpoolM:
		return "Whirlpool-M"
	case LockStep:
		return "LockStep"
	case LockStepNoPrune:
		return "LockStep-NoPrun"
	default:
		return "algorithm(?)"
	}
}

// Routing selects how the router picks the next server for a partial
// match (Section 6.1.4).
type Routing int

const (
	// RoutingStatic sends every match through the same server order
	// (Config.Order, defaulting to query-node order).
	RoutingStatic Routing = iota
	// RoutingMaxScore picks the unvisited server expected to increase
	// the match's score the most.
	RoutingMaxScore
	// RoutingMinScore picks the server expected to increase the score
	// the least.
	RoutingMinScore
	// RoutingMinAlive picks the server expected to yield the fewest
	// alive extensions after pruning — the paper's
	// min_alive_partial_matches strategy, its overall winner.
	RoutingMinAlive
)

// String returns the paper's name for the routing strategy.
func (r Routing) String() string {
	switch r {
	case RoutingStatic:
		return "static"
	case RoutingMaxScore:
		return "max_score"
	case RoutingMinScore:
		return "min_score"
	case RoutingMinAlive:
		return "min_alive_partial_matches"
	default:
		return "routing(?)"
	}
}

// Queue selects the priority discipline for server and router queues
// (Section 6.1.3).
type Queue int

const (
	// QueueMaxFinal orders by maximum possible final score — the
	// paper's best-performing discipline and the default.
	QueueMaxFinal Queue = iota
	// QueueFIFO processes matches in arrival order.
	QueueFIFO
	// QueueCurrentScore orders by current score.
	QueueCurrentScore
	// QueueMaxNext orders by current score plus the maximum
	// contribution of the queue's server.
	QueueMaxNext
)

// String returns the paper's name for the queue discipline.
func (q Queue) String() string {
	switch q {
	case QueueMaxFinal:
		return "max-possible-final"
	case QueueFIFO:
		return "fifo"
	case QueueCurrentScore:
		return "current-score"
	case QueueMaxNext:
		return "max-possible-next"
	default:
		return "queue(?)"
	}
}

// Config parameterizes one evaluation.
type Config struct {
	// K is the number of answers to return. Required, ≥ 1.
	K int
	// Relax selects the enabled relaxations; relax.None computes exact
	// matches only, relax.All the paper's approximate-match setting.
	Relax relax.Relaxation
	// Algorithm selects the evaluation strategy.
	Algorithm Algorithm
	// Routing selects the adaptive routing strategy (ignored by the
	// LockStep algorithms, which are static by nature).
	Routing Routing
	// Order is the static server order (query node IDs, each non-root
	// node exactly once). Used by RoutingStatic and as the LockStep
	// phase order; defaults to ascending node IDs.
	Order []int
	// Queue is the priority discipline for the router and server queues.
	Queue Queue
	// Scorer supplies contribution scores; required.
	Scorer score.Scorer
	// Trace, when non-nil, receives per-run observability events:
	// routing decisions, the prune-threshold trajectory, queue depth
	// samples and match lifecycle counts (see internal/obs). Every
	// emission is nil-checked, so the default — no sink — leaves the
	// hot path with one predictable branch and no allocation. Under
	// Whirlpool-M the sink is invoked from multiple goroutines and must
	// be safe for concurrent use.
	Trace obs.TraceSink
	// Plan, when non-nil, supplies a precompiled query plan
	// (CompilePlan): server plans, per-server routing statistics and a
	// cost-based static order, typically drawn from a shared plan cache.
	// The plan must have been compiled for the same pattern and the same
	// Relax mode; New verifies both. Answers are identical with or
	// without a plan — only construction cost and the static-order
	// default change.
	Plan *Plan
}

// Experiment holds the knobs only the paper's experiments turn, which no
// serving path sets: NewExperiment takes them beside a Config.
type Experiment struct {
	// OpCost, when positive, adds a synthetic CPU cost to every server
	// operation — the Figure 8 knob for studying when adaptivity pays.
	OpCost time.Duration
	// Threshold seeds the top-k set's pruning threshold (currentTopK),
	// as in the Figure 3 analysis. Zero means no seed.
	Threshold float64
	// PaperRoots keeps the paper's pruning: every root the cursor
	// materialises carries the uniform bound maxContrib[0] + Σ maxContrib,
	// none is tested against the other servers' postings (so no full
	// pass streams the roots holding every server first), and a partial
	// match is pruned only against currentTopK, never because its own
	// root's entry dominates it (topkEntry.dominance). The reproduced
	// figures and tables run with it, so their counters are the paper's
	// algorithm's.
	PaperRoots bool
}

// Stats instruments one evaluation with the paper's measures
// (Section 6.2.3).
//
// The root server is a stream (rootCursor): a root candidate cut
// because no remaining root could beat currentTopK was never created,
// so it is in none of ServerOps, JoinComparisons and MatchesCreated. It
// counts in Pruned once, with the PrunedRemote attribution and trace event
// of a prune at pop — what eager seeding would have made of it, short
// of testing the root's structural predicate and its servers' postings
// — so Pruned may exceed MatchesCreated. A candidate a posting stream
// (Engine.RootVia) runs out without reaching is in no counter: it could
// not have answered. A root killed at the cursor, because some server
// has no posting in its subtree and no leaf deletion could stand in for
// it, or, on an exact run, none at the pattern's depth below it, counts
// in JoinComparisons only; one whose bound at birth, lowered by its
// servers' relaxed maxima, cannot beat currentTopK counts there and in
// Pruned. The cursor's segments each test a root, so a root the full
// pass passes over counts in JoinComparisons once per test.
type Stats struct {
	// ServerOps counts partial matches processed by servers (including
	// the root server's output as one op per generated match).
	ServerOps int64
	// JoinComparisons counts individual join-predicate comparisons —
	// the Figure 3 metric.
	JoinComparisons int64
	// MatchesCreated counts partial matches created, the Table 2
	// scalability metric.
	MatchesCreated int64
	// Roots counts the matches the root server's stream produced.
	Roots int64
	// Pruned counts partial matches discarded against the top-k set —
	// below currentTopK, or dominated by their own root's entry — plus
	// the root candidates the cursor dropped unmaterialised.
	Pruned int64
	// PrunedRemote counts the subset of Pruned discarded below a
	// threshold owned by another shard's entry — matches this run
	// never had to finish because a different shard of a sharded
	// evaluation found a better answer first. Always 0 for standalone
	// runs.
	PrunedRemote int64
	// Duration is the wall-clock query execution time.
	Duration time.Duration
}

// Add accumulates o into s, field by field — the one place a set of
// Stats is folded into another (shard merge, engine and daemon totals).
func (s *Stats) Add(o Stats) {
	s.ServerOps += o.ServerOps
	s.JoinComparisons += o.JoinComparisons
	s.MatchesCreated += o.MatchesCreated
	s.Roots += o.Roots
	s.Pruned += o.Pruned
	s.PrunedRemote += o.PrunedRemote
	s.Duration += o.Duration
}

// Answer is one of the top-k results. Nodes are preorder ordinals of the
// engine's document (index.Source.Cols), which renders them.
type Answer struct {
	// Root is the matched instantiation of the query's returned node.
	Root int32
	// Bindings maps query node ID to the bound document node; -1 means
	// the node was relaxed away (leaf deletion).
	Bindings []int32
	// Score is the answer's final score.
	Score float64
}

// Result is the outcome of one evaluation.
type Result struct {
	// Answers holds at most K answers with distinct roots, best first
	// (ties broken by document order of the root).
	Answers []Answer
	// Stats holds the run's instrumentation.
	Stats Stats
}

func (c *Config) validate(querySize int) error {
	if c.K < 1 {
		return fmt.Errorf("core: K must be ≥ 1, got %d", c.K)
	}
	if c.Scorer == nil {
		return fmt.Errorf("core: Scorer is required")
	}
	if c.Algorithm < WhirlpoolS || c.Algorithm > LockStepNoPrune {
		return fmt.Errorf("core: unknown algorithm %d", c.Algorithm)
	}
	if querySize > 64 {
		return fmt.Errorf("core: queries are limited to 64 nodes, got %d", querySize)
	}
	if c.Order != nil {
		if len(c.Order) != querySize-1 {
			return fmt.Errorf("core: Order must list the %d non-root nodes, got %d", querySize-1, len(c.Order))
		}
		seen := make(map[int]bool)
		for _, id := range c.Order {
			if id < 1 || id >= querySize || seen[id] {
				return fmt.Errorf("core: Order must be a permutation of 1..%d", querySize-1)
			}
			seen[id] = true
		}
	}
	return nil
}
