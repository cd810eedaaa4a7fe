// Package naive is the reference evaluator used to validate the Whirlpool
// engines: it exhaustively enumerates every (relaxed) match tuple per
// root candidate, scores each with the same Scorer, keeps each root's
// best tuple, and returns the k best roots. It shares no evaluation
// machinery with internal/core beyond the predicate-composition helpers,
// so agreement between the two is meaningful evidence of correctness.
//
// Enumeration is exponential in query size by design — use it on small
// documents only.
package naive

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Answer is one ranked result.
type Answer struct {
	Root  *xmltree.Node
	Score float64
}

// TopK evaluates q over ix under the given relaxations, scoring tuples
// with s, and returns the k best distinct roots (best tuple score per
// root), best first, ties by document order.
func TopK(ix index.Source, q *pattern.Query, r relax.Relaxation, s score.Scorer, k int) []Answer {
	ev := &evaluator{ix: ix, q: q, relax: r, scorer: s, dewey: deweys{}}
	ev.prepare()
	var answers []Answer
	for _, root := range ix.NodesMatching(q.Root().Tag, index.Test(q.Root().ValueOp, q.Root().Value)) {
		rootVariant, ok := ev.rootVariant(root)
		if !ok {
			continue
		}
		base := s.Contribution(0, rootVariant, root.Ord)
		best, found := ev.bestTuple(root, base)
		if !found {
			continue
		}
		answers = append(answers, Answer{Root: root, Score: best})
	}
	sortAnswers(answers)
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers
}

type evaluator struct {
	ix     index.Source
	q      *pattern.Query
	relax  relax.Relaxation
	scorer score.Scorer

	rootPath []relax.PathPredicate // exact composition root -> node
	// cands[id] is query node id's probe scratch, reused across roots.
	// Safe despite the recursive enumeration: level id only reads its
	// own buffer, and deeper levels use their own.
	cands      [][]*xmltree.Node
	assignment []*xmltree.Node // reused across roots
	dewey      deweys
}

// deweys derives a node's Dewey components once per evaluation. The
// oracle decides every structural relation on them — never on the
// preorder intervals the engine reads — so it shares no containment
// arithmetic with what it checks.
type deweys map[*xmltree.Node]dewey.ID

func (d deweys) of(n *xmltree.Node) dewey.ID {
	id, ok := d[n]
	if !ok {
		id = n.ID.Path()
		d[n] = id
	}
	return id
}

// sortAnswers orders answers best first. The score comparison is
// deliberately exact: equal scores tie-break on the root ordinal so
// baseline and engine rankings are deterministic.
func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score > answers[j].Score
		}
		return answers[i].Root.Ord < answers[j].Root.Ord
	})
}

func (ev *evaluator) prepare() {
	n := ev.q.Size()
	ev.rootPath = make([]relax.PathPredicate, n)
	for id := 1; id < n; id++ {
		ev.rootPath[id] = relax.ComposePath(ev.q, 0, id)
	}
	ev.cands = make([][]*xmltree.Node, n)
	ev.assignment = make([]*xmltree.Node, n)
}

// rootVariant classifies the root binding against the virtual document
// root, rejecting non-forest-root bindings of /tag queries when edge
// generalization is off.
func (ev *evaluator) rootVariant(root *xmltree.Node) (score.Variant, bool) {
	if ev.q.Root().Axis == dewey.Child && root.Level() != 1 {
		if !ev.relax.Has(relax.EdgeGeneralization) {
			return 0, false
		}
		return score.Relaxed, true
	}
	return score.Exact, true
}

// bestTuple enumerates every consistent assignment of document nodes (or
// nil) to the non-root query nodes and returns the best total score.
func (ev *evaluator) bestTuple(root *xmltree.Node, base float64) (float64, bool) {
	n := ev.q.Size()
	assignment := ev.assignment
	clear(assignment)
	assignment[0] = root
	best, found := 0.0, false
	var recurse func(id int, acc float64)
	recurse = func(id int, acc float64) {
		if id == n {
			if !found || acc > best {
				best, found = acc, true
			}
			return
		}
		qn := ev.q.Nodes[id]
		// Candidates: all descendants of the root binding with the right
		// tag/value, probed into the node's reused scratch.
		ev.cands[id] = ev.ix.AppendCandidates(ev.cands[id][:0], root, dewey.Descendant, qn.Tag, index.Test(qn.ValueOp, qn.Value))
		for _, c := range ev.cands[id] {
			if !ev.validBinding(assignment, id, c) {
				continue
			}
			variant := score.Relaxed
			if holdsExact(ev.rootPath[id], ev.dewey.of(root), ev.dewey.of(c)) {
				variant = score.Exact
			}
			if ev.relax == relax.None && variant != score.Exact {
				continue
			}
			assignment[id] = c
			recurse(id+1, acc+ev.scorer.Contribution(id, variant, c.Ord))
			assignment[id] = nil
		}
		if ev.relax.Has(relax.LeafDeletion) && ev.nullOK(assignment, id) {
			recurse(id+1, acc)
		}
	}
	recurse(1, base)
	return best, found
}

// holdsExact is relax.PathPredicate.HoldsExact decided on Dewey IDs
// rather than the engine's preorder intervals.
func holdsExact(p relax.PathPredicate, anchor, target dewey.ID) bool {
	diff := target.Level() - anchor.Level()
	if !p.DepthHoldsExact(diff) {
		return false
	}
	if p.MinLevels == 0 && diff == 0 {
		return anchor.Equal(target)
	}
	return anchor.IsAncestorOf(target)
}

// validBinding checks candidate c for query node id against the already
// assigned nodes (all pattern ancestors of id have smaller IDs, so the
// parent is always decided first).
func (ev *evaluator) validBinding(assignment []*xmltree.Node, id int, c *xmltree.Node) bool {
	qn := ev.q.Nodes[id]
	parent := qn.Parent
	pBind := assignment[parent]
	if pBind == nil {
		// Parent relaxed away: only subtree promotion re-anchors c.
		return parent == 0 || ev.relax.Has(relax.SubtreePromotion)
	}
	pID, cID := ev.dewey.of(pBind), ev.dewey.of(c)
	exactHolds := pID.IsParentOf(cID)
	if qn.Axis == dewey.Descendant {
		exactHolds = pID.IsAncestorOf(cID)
	}
	if exactHolds {
		return true
	}
	if ev.relax.Has(relax.EdgeGeneralization) && pID.IsAncestorOf(cID) {
		return true
	}
	return ev.relax.Has(relax.SubtreePromotion)
}

// nullOK reports whether deleting node id is consistent; pattern children
// are decided later, so with promotion off their own validBinding calls
// reject bindings under a deleted parent.
func (ev *evaluator) nullOK(assignment []*xmltree.Node, id int) bool {
	return true
}
