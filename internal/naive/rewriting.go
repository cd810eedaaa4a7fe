package naive

import (
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// TopKByRewriting evaluates top-k the way rewriting-based systems do
// (the strategy plan-relaxation [2] was shown to beat): enumerate the
// query's relaxation closure, compute the exact matches of every relaxed
// query, score them against the *original* query's component predicates,
// and merge. Only this package's tests call it, to hold TopK's relaxed
// answers to the rewriting semantics; the rewriting-vs-plan-relaxation
// ablation (internal/bench) runs core engines over the closure instead.
//
// The enumeration is capped at limit relaxed queries (0 = uncapped); the
// boolean result reports truncation, in which case the answer set may be
// incomplete.
func TopKByRewriting(ix index.Source, q *pattern.Query, r relax.Relaxation, s score.Scorer, k, limit int) ([]Answer, bool) {
	queries, truncated := relax.Enumerate(q, r, limit)
	rootPath := make([]relax.PathPredicate, q.Size())
	for id := 1; id < q.Size(); id++ {
		rootPath[id] = relax.ComposePath(q, 0, id)
	}
	best := make(map[int32]float64)
	roots := make(map[int32]*xmltree.Node)
	ids := deweys{}
	for _, rq := range queries {
		evalExact(ix, q, rq, rootPath, s, ids, func(root *xmltree.Node, sc float64) {
			if cur, ok := best[root.Ord]; !ok || sc > cur {
				best[root.Ord] = sc
				roots[root.Ord] = root
			}
		})
	}
	answers := make([]Answer, 0, len(best))
	for ord, sc := range best {
		answers = append(answers, Answer{Root: roots[ord], Score: sc})
	}
	sortAnswers(answers)
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers, truncated
}

// evalExact enumerates the exact matches of relaxed query rq and reports
// each root's best tuple score, computed against the original query's
// component predicates (orig/rootPath) so scores are comparable across
// the closure.
func evalExact(ix index.Source, orig *pattern.Query, rq relax.RelaxedQuery, rootPath []relax.PathPredicate, s score.Scorer, ids deweys, yield func(*xmltree.Node, float64)) {
	q := rq.Query
	// Per-query-node probe scratch, reused across roots and recursion
	// levels (level id only touches scratch[id]).
	scratch := make([][]*xmltree.Node, q.Size())
	for _, root := range ix.NodesMatching(q.Root().Tag, index.Test(q.Root().ValueOp, q.Root().Value)) {
		// Root axis is exact for the relaxed query; score the variant
		// against the original root axis.
		if q.Root().Axis == dewey.Child && root.Level() != 1 {
			continue
		}
		rootVariant := score.Exact
		if orig.Root().Axis == dewey.Child && root.Level() != 1 {
			rootVariant = score.Relaxed
		}
		base := s.Contribution(0, rootVariant, root.Ord)
		bindings := make([]*xmltree.Node, q.Size())
		bindings[0] = root
		best, found := 0.0, false
		var recurse func(id int, acc float64)
		recurse = func(id int, acc float64) {
			if id == q.Size() {
				if !found || acc > best {
					best, found = acc, true
				}
				return
			}
			qn := q.Nodes[id]
			vt := index.Test(qn.ValueOp, qn.Value)
			parent := bindings[qn.Parent]
			cands := ix.AppendCandidates(scratch[id][:0], parent, qn.Axis, qn.Tag, vt)
			scratch[id] = cands
			origID := rq.NodeMap[id]
			for _, c := range cands {
				variant := score.Relaxed
				if holdsExact(rootPath[origID], ids.of(root), ids.of(c)) {
					variant = score.Exact
				}
				bindings[id] = c
				recurse(id+1, acc+s.Contribution(origID, variant, c.Ord))
				bindings[id] = nil
			}
		}
		recurse(1, base)
		if found {
			yield(root, best)
		}
	}
}
