package core

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
)

// Plan is a compiled, immutable query plan: everything engine
// construction needs that depends only on (query shape, relaxation
// mode, corpus statistics) — server plans, a scorer, per-server routing
// statistics and a cost-based static order. Plans are safe to share
// across engines and goroutines and to cache under their Key; New
// accepts one via Config.Plan and skips the corresponding per-engine
// work.
type Plan struct {
	// Key is the canonical cache key the plan was compiled under
	// (pattern.CanonicalKey plus scoring/relaxation qualifiers); purely
	// informational for the engine.
	Key string
	// Query is the pattern the plan was compiled for. Engines built
	// from the plan must evaluate a query with the same String().
	Query *pattern.Query
	// Relax is the relaxation mode the server plans encode.
	Relax relax.Relaxation
	// Plans are the per-node server plans (Algorithm 1).
	Plans []*relax.ServerPlan
	// Scorer is the scorer compiled with the plan. The engine does not
	// read it from here — whirlpool's facade passes it through
	// Config.Scorer — but caching it beside the plans is what makes a
	// cache hit skip scorer construction too.
	Scorer score.Scorer
	// Fanout[id] is the mean number of node-id extensions per
	// satisfying root; SatisfyProb[id] the fraction of roots with at
	// least one. Index 0 is unused.
	Fanout      []float64
	SatisfyProb []float64
	// Order is the cost-based static server order (fewest expected
	// alive matches first), used when Config.Order is nil.
	Order []int
}

// CompilePlan builds a Plan for q under relaxation r from already
// collected component-predicate statistics (score.CollectStats) — the
// same values the plan's scorer was built from, so planning makes one
// statistics pass and never probes the index itself. The resulting
// engine behavior is identical to New without a plan — same server
// plans, same statistics — except that the static order defaults to the
// cost-based one instead of ascending node IDs.
func CompilePlan(stats score.Stats, q *pattern.Query, r relax.Relaxation, scorer score.Scorer, key string) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Key:    key,
		Query:  q,
		Relax:  r,
		Plans:  relax.BuildPlans(q, r),
		Scorer: scorer,
	}
	p.Fanout, p.SatisfyProb = routingStats(p.Plans, stats)
	p.Order = orderByAlive(p.SatisfyProb, p.Fanout, r)
	return p, nil
}

// routingStats derives the size-based router's inputs (Section 6.1.4)
// from the component-predicate statistics: per non-root server, the
// mean number of extensions per satisfying root and the fraction of
// roots with at least one, read off the variant its probe axis sees.
func routingStats(plans []*relax.ServerPlan, stats score.Stats) (fanout, satisfyProb []float64) {
	fanout = make([]float64, len(plans))
	satisfyProb = make([]float64, len(plans))
	for id := 1; id < len(plans); id++ {
		st := stats.ForAxis(id, plans[id].ProbeAxis())
		fanout[id] = st.MeanFanout()
		satisfyProb[id] = st.Selectivity()
	}
	return fanout, satisfyProb
}

// CostBasedOrder chooses a static server order a priori from index
// statistics — the paper's suggestion that "for homogeneous data sets
// [static routing] might actually be the strategy of choice, where the
// sequence can be determined a priori in a cost-based manner" (Section
// 6.1.4). Servers are ordered by increasing expected number of partial
// matches they leave alive per input match (selectivity × fanout, plus
// the null extension for non-satisfying roots), the size-based analog of
// selectivity-ordered join plans.
func CostBasedOrder(ix index.Source, q *pattern.Query, r relax.Relaxation) []int {
	fanout, satisfyProb := routingStats(relax.BuildPlans(q, r), score.CollectStats(ix, nil, q))
	return orderByAlive(satisfyProb, fanout, r)
}

// checkAgainst verifies the plan is usable for (q, cfg): compiled for
// the same pattern and relaxation mode.
func (p *Plan) checkAgainst(q *pattern.Query, cfg *Config) error {
	if p.Relax != cfg.Relax {
		return fmt.Errorf("core: plan compiled for relaxation %v, config wants %v", p.Relax, cfg.Relax)
	}
	if len(p.Plans) != q.Size() || len(p.Fanout) != q.Size() || len(p.SatisfyProb) != q.Size() {
		return fmt.Errorf("core: plan sized for %d query nodes, query has %d", len(p.Plans), q.Size())
	}
	if p.Query != q && p.Query.String() != q.String() {
		return fmt.Errorf("core: plan compiled for %s, engine query is %s", p.Query, q)
	}
	return nil
}

// orderByAlive sorts the non-root servers by increasing expected alive
// partial matches per input match — selectivity × fanout, plus the
// outer-join null extension under leaf deletion — tie-breaking on node
// ID so the order is deterministic.
func orderByAlive(satisfyProb, fanout []float64, r relax.Relaxation) []int {
	type cost struct {
		id    int
		alive float64
	}
	costs := make([]cost, 0, len(satisfyProb)-1)
	for id := 1; id < len(satisfyProb); id++ {
		alive := satisfyProb[id] * fanout[id]
		if r.Has(relax.LeafDeletion) {
			alive += 1 - satisfyProb[id]
		}
		costs = append(costs, cost{id: id, alive: alive})
	}
	sort.SliceStable(costs, func(i, j int) bool {
		if costs[i].alive != costs[j].alive {
			return costs[i].alive < costs[j].alive
		}
		return costs[i].id < costs[j].id
	})
	order := make([]int, len(costs))
	for i, c := range costs {
		order[i] = c.id
	}
	return order
}
