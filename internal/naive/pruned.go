package naive

import (
	"sort"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// TopKByRewritingPruned is TopKByRewriting with idf-bounded relaxation
// pruning: before a relaxed query is evaluated, its best-possible tuple
// score (score.RelaxationUpperBound) is compared against the running
// k-th best distinct-root score, and queries that cannot strictly beat
// it are skipped. Queries are evaluated in descending-bound order
// (enumeration ordinal breaking ties) so the threshold tightens as
// early as possible.
//
// The pruning is admissible — the answer set is identical to the
// unpruned enumeration's:
//
//   - the bound is an upper bound on every tuple score of the skipped
//     query, in float arithmetic (same accumulation order, monotone
//     rounding), so every skipped tuple scores strictly below the
//     running threshold;
//   - the running threshold only ever rises, and is always ≤ the final
//     k-th best score, so skipped tuples score strictly below that too;
//   - a root whose best tuple scores strictly below the final k-th best
//     never appears in the returned top k (ties at the boundary resolve
//     by document order, which is why the comparison must be strict: a
//     bound merely equal to the threshold could still yield an answer
//     that displaces a later root on document order).
//
// pruned reports how many relaxed queries were skipped. The scorer must
// be node-independent (see RelaxationUpperBound); the tf*idf scorer is.
func TopKByRewritingPruned(ix index.Source, q *pattern.Query, r relax.Relaxation, s score.Scorer, k, limit int) (answers []Answer, pruned int, truncated bool) {
	queries, truncated := relax.Enumerate(q, r, limit)
	rootPath := make([]relax.PathPredicate, q.Size())
	for id := 1; id < q.Size(); id++ {
		rootPath[id] = relax.ComposePath(q, 0, id)
	}
	type cand struct {
		rq    relax.RelaxedQuery
		ord   int
		bound float64
	}
	cands := make([]cand, len(queries))
	for i, rq := range queries {
		cands[i] = cand{rq: rq, ord: i, bound: score.RelaxationUpperBound(s, rootPath, rq)}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound > cands[j].bound
		}
		return cands[i].ord < cands[j].ord
	})

	best := make(map[int32]float64)
	roots := make(map[int32]*xmltree.Node)
	ids := deweys{}
	// kth returns the running k-th best distinct-root score; ok is
	// false until k roots have been seen.
	scores := make([]float64, 0, k)
	kth := func() (float64, bool) {
		if len(best) < k {
			return 0, false
		}
		scores = scores[:0]
		for _, sc := range best {
			scores = append(scores, sc)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		return scores[k-1], true
	}
	for _, c := range cands {
		if th, ok := kth(); ok && c.bound < th {
			pruned++
			continue
		}
		evalExact(ix, q, c.rq, rootPath, s, ids, func(root *xmltree.Node, sc float64) {
			if cur, ok := best[root.Ord]; !ok || sc > cur {
				best[root.Ord] = sc
				roots[root.Ord] = root
			}
		})
	}
	answers = make([]Answer, 0, len(best))
	for ord, sc := range best {
		answers = append(answers, Answer{Root: roots[ord], Score: sc})
	}
	sortAnswers(answers)
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers, pruned, truncated
}
