// Package joins implements the conventional exact XPath evaluation
// strategy the paper builds on (Section 3): binary join plans over
// index-retrieved postings lists, with stack-based structural join
// algorithms deciding the pc/ad axes. It serves as an independent exact
// baseline for the Whirlpool engine (cross-checked in tests) and as the
// "evaluate everything, then rank" comparator in the benchmarks.
package joins

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Pair is one (ancestor, descendant) result of a structural join.
type Pair struct {
	Anc, Desc *xmltree.Node
}

// AncestorDescendantPairs computes all pairs (a, d) with a ∈ ancs an
// ancestor of d ∈ descs, using the stack-tree merge on Dewey IDs: both
// inputs must be in document order; the output is in (desc, anc)
// document order. Each input's IDs are derived once per call. The cost
// is O(|ancs| + |descs| + |output|).
func AncestorDescendantPairs(ancs, descs []*xmltree.Node) []Pair {
	ancIDs, descIDs := paths(ancs), paths(descs)
	var out []Pair
	var stack []int // indices into ancs
	ai := 0
	for di, d := range descs {
		// Push every ancestor candidate that starts before d, keeping
		// the stack a containment chain: a subtree is a contiguous
		// document-order interval, so a popped entry can contain neither
		// the pushed candidate nor anything after it.
		for ai < len(ancs) && ancIDs[ai].Compare(descIDs[di]) < 0 {
			for len(stack) > 0 && !ancIDs[stack[len(stack)-1]].IsAncestorOf(ancIDs[ai]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ai)
			ai++
		}
		// Pop chain entries whose subtrees ended before d; the rest all
		// contain d (each contains the next, and the top contains d).
		for len(stack) > 0 && !ancIDs[stack[len(stack)-1]].IsAncestorOf(descIDs[di]) {
			stack = stack[:len(stack)-1]
		}
		for _, a := range stack {
			out = append(out, Pair{Anc: ancs[a], Desc: d})
		}
	}
	return out
}

// paths derives the Dewey IDs of ns.
func paths(ns []*xmltree.Node) []dewey.ID {
	out := make([]dewey.ID, len(ns))
	for i, n := range ns {
		out[i] = n.ID.Path()
	}
	return out
}

// ParentChildPairs is AncestorDescendantPairs restricted to direct
// parents: the pairs one level apart.
func ParentChildPairs(ancs, descs []*xmltree.Node) []Pair {
	all := AncestorDescendantPairs(ancs, descs)
	out := all[:0]
	for _, p := range all {
		if p.Desc.Level() == p.Anc.Level()+1 {
			out = append(out, p)
		}
	}
	return out
}

// Match is one exact match tuple: Bindings[i] instantiates query node i.
type Match struct {
	Bindings []*xmltree.Node
}

// Stats counts the work a plan execution performed.
type Stats struct {
	// JoinPairs is the total number of structural-join output pairs.
	JoinPairs int
	// Intermediate is the peak number of intermediate tuples.
	Intermediate int
}

// ExactMatches computes every exact match of q using a left-deep binary
// join plan in query-node order (parents join before their children, as
// node IDs guarantee).
func ExactMatches(ix index.Source, q *pattern.Query) ([]Match, Stats) {
	var st Stats
	root := q.Root()
	var tuples [][]*xmltree.Node
	for _, r := range ix.NodesMatching(root.Tag, index.Test(root.ValueOp, root.Value)) {
		if root.Axis == dewey.Child && r.Level() != 1 {
			continue
		}
		row := make([]*xmltree.Node, q.Size())
		row[0] = r
		tuples = append(tuples, row)
	}
	if len(tuples) > st.Intermediate {
		st.Intermediate = len(tuples)
	}
	for id := 1; id < q.Size() && len(tuples) > 0; id++ {
		qn := q.Nodes[id]
		postings := ix.NodesMatching(qn.Tag, index.Test(qn.ValueOp, qn.Value))
		tuples = joinStep(tuples, qn, postings, &st)
		if len(tuples) > st.Intermediate {
			st.Intermediate = len(tuples)
		}
	}
	out := make([]Match, len(tuples))
	for i, row := range tuples {
		out[i] = Match{Bindings: row}
	}
	return out, st
}

// joinStep extends every tuple with the qn bindings structurally related
// to the tuple's parent-column binding.
func joinStep(tuples [][]*xmltree.Node, qn *pattern.Node, postings []*xmltree.Node, st *Stats) [][]*xmltree.Node {
	parentCol := qn.Parent
	// Distinct parent bindings in document order.
	seen := make(map[int32]*xmltree.Node)
	for _, row := range tuples {
		p := row[parentCol]
		seen[p.Ord] = p
	}
	parents := make([]*xmltree.Node, 0, len(seen))
	for _, p := range seen {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Ord < parents[j].Ord })

	var pairs []Pair
	if qn.Axis == dewey.Child {
		pairs = ParentChildPairs(parents, postings)
	} else {
		pairs = AncestorDescendantPairs(parents, postings)
	}
	st.JoinPairs += len(pairs)
	byParent := make(map[int32][]*xmltree.Node)
	for _, p := range pairs {
		byParent[p.Anc.Ord] = append(byParent[p.Anc.Ord], p.Desc)
	}
	var next [][]*xmltree.Node
	for _, row := range tuples {
		for _, d := range byParent[row[parentCol].Ord] {
			nr := make([]*xmltree.Node, len(row))
			copy(nr, row)
			nr[qn.ID] = d
			next = append(next, nr)
		}
	}
	return next
}

// Answer is one ranked exact answer.
type Answer struct {
	Root  *xmltree.Node
	Score float64
}

// TopK ranks the exact matches of q: every tuple is scored with s (each
// binding contributes its exact component-predicate score), each root
// keeps its best tuple, and the k best distinct roots are returned —
// the "evaluate everything, then sort" strategy top-k processing avoids.
func TopK(ix index.Source, q *pattern.Query, s score.Scorer, k int) ([]Answer, Stats) {
	matches, st := ExactMatches(ix, q)
	best := make(map[int32]Answer)
	for _, m := range matches {
		total := 0.0
		for id, b := range m.Bindings {
			total += s.Contribution(id, score.Exact, b.Ord)
		}
		root := m.Bindings[0]
		if cur, ok := best[root.Ord]; !ok || total > cur.Score {
			best[root.Ord] = Answer{Root: root, Score: total}
		}
	}
	answers := make([]Answer, 0, len(best))
	for _, a := range best {
		answers = append(answers, a)
	}
	sortAnswers(answers)
	if len(answers) > k {
		answers = answers[:k]
	}
	return answers, st
}

// sortAnswers orders answers best first. The score comparison is
// deliberately exact: equal scores tie-break on the root ordinal so
// the baseline's ranking is deterministic.
func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score > answers[j].Score
		}
		return answers[i].Root.Ord < answers[j].Root.Ord
	})
}
