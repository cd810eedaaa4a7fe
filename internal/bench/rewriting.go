package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/relax"
	"repro/internal/score"
)

// mappedScorer forwards contributions to the original query's scorer
// through a relaxed query's node map.
type mappedScorer struct {
	inner   score.Scorer
	nodeMap []int
}

func (m *mappedScorer) Contribution(nodeID int, v score.Variant, ord int32) float64 {
	return m.inner.Contribution(m.nodeMap[nodeID], v, ord)
}
func (m *mappedScorer) MaxContribution(nodeID int) float64 {
	return m.inner.MaxContribution(m.nodeMap[nodeID])
}
func (m *mappedScorer) MinContribution(nodeID int) float64 {
	return m.inner.MinContribution(m.nodeMap[nodeID])
}
func (m *mappedScorer) ExpectedContribution(nodeID int) float64 {
	return m.inner.ExpectedContribution(m.nodeMap[nodeID])
}

// RewritingVsPlanRelaxation is the Section 3 comparison the paper
// inherits from [2]: evaluating one outer-join (plan-relaxation) query is
// far cheaper than exactly evaluating every member of the relaxation
// closure (rewriting-based evaluation). For each query it reports the
// closure size and the total server operations of both strategies.
func RewritingVsPlanRelaxation(w io.Writer, c Config) error {
	c = c.withDefaults()
	env, err := NewEnv(c.Seed, c.bytesFor(Doc1MB), c.Norm)
	if err != nil {
		return err
	}
	const closureCap = 2000
	fmt.Fprintf(w, "Rewriting vs plan-relaxation (k=%d, %d bytes, closure capped at %d)\n", c.K, env.Bytes, closureCap)
	t := newTable(w, "query", "closure size", "rewriting ops", "plan-relaxation ops", "ratio")
	for _, wl := range Queries() {
		q := env.Query(wl)
		closure, truncated := relax.Enumerate(q, relax.All, closureCap)
		var rewriteOps int64
		for _, rq := range closure {
			cfg := core.Config{
				K:         c.K,
				Relax:     relax.None,
				Algorithm: core.WhirlpoolS,
				Routing:   core.RoutingMinAlive,
				Scorer:    &mappedScorer{inner: env.Scorer(wl), nodeMap: rq.NodeMap},
			}
			eng, err := core.NewExperiment(env.Ix, rq.Query, cfg, core.Experiment{PaperRoots: true})
			if err != nil {
				return err
			}
			res, err := eng.Run()
			if err != nil {
				return err
			}
			rewriteOps += res.Stats.ServerOps
		}
		cc := c
		cc.OpCost = 0
		plan := env.MustRun(wl, baseConfig(cc, env, wl, core.WhirlpoolS))
		size := fmt.Sprintf("%d", len(closure))
		if truncated {
			size = fmt.Sprintf("≥%d (capped)", len(closure))
		}
		t.add(wl.Name, size,
			fmt.Sprintf("%d", rewriteOps),
			fmt.Sprintf("%d", plan.Stats.ServerOps),
			fmt.Sprintf("%.1fx", float64(rewriteOps)/float64(plan.Stats.ServerOps)))
	}
	t.flush()
	return nil
}
