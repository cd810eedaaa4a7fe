// Package joins implements the conventional exact XPath evaluation
// strategy the paper builds on (Section 3): binary join plans over
// index-retrieved postings lists, with stack-based structural join
// algorithms deciding the pc/ad axes. It serves as an independent exact
// baseline for the Whirlpool engine (cross-checked in tests) and as the
// "evaluate everything, then rank" comparator in the benchmarks.
package joins

import (
	"slices"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Pair is one (ancestor, descendant) result of a structural join, as
// preorder ordinals.
type Pair struct {
	Anc, Desc int32
}

// AncestorDescendantPairs computes all pairs (a, d) with a ∈ ancs an
// ancestor of d ∈ descs in the document c, using the stack-tree merge on
// preorder intervals: a contains d when d lies in (a, End(a)]. Both
// inputs must be ascending ordinals; the output is in (desc, anc)
// document order. The cost is O(|ancs| + |descs| + |output|).
func AncestorDescendantPairs(c *xmltree.Columns, ancs, descs []uint32) []Pair {
	var out []Pair
	var stack []int32 // a containment chain of ancestor candidates
	ai := 0
	for _, du := range descs {
		d := int32(du)
		// Push every ancestor candidate that starts before d, keeping
		// the stack a containment chain: a subtree is a contiguous
		// document-order interval, so a popped entry can contain neither
		// the pushed candidate nor anything after it.
		for ; ai < len(ancs) && int32(ancs[ai]) < d; ai++ {
			a := int32(ancs[ai])
			for len(stack) > 0 && !c.Contains(stack[len(stack)-1], a) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, a)
		}
		// Pop chain entries whose subtrees ended before d; the rest all
		// contain d (each contains the next, and the top contains d).
		for len(stack) > 0 && !c.Contains(stack[len(stack)-1], d) {
			stack = stack[:len(stack)-1]
		}
		for _, a := range stack {
			out = append(out, Pair{Anc: a, Desc: d})
		}
	}
	return out
}

// ParentChildPairs is AncestorDescendantPairs restricted to direct
// parents: the pairs one level apart.
func ParentChildPairs(c *xmltree.Columns, ancs, descs []uint32) []Pair {
	all := AncestorDescendantPairs(c, ancs, descs)
	out := all[:0]
	for _, p := range all {
		if c.Level[p.Desc] == c.Level[p.Anc]+1 {
			out = append(out, p)
		}
	}
	return out
}

// Match is one exact match tuple: Bindings[i] is the ordinal
// instantiating query node i.
type Match struct {
	Bindings []int32
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
	c, root := ix.Cols(), q.Root()
	var tuples [][]int32
	for _, r := range ix.Ords(root.Tag, index.Test(root.ValueOp, root.Value)) {
		if root.Axis == dewey.Child && c.Level[r] != 1 {
			continue
		}
		row := make([]int32, q.Size())
		row[0] = int32(r)
		tuples = append(tuples, row)
	}
	st.Intermediate = len(tuples)
	for id := 1; id < q.Size() && len(tuples) > 0; id++ {
		qn := q.Nodes[id]
		tuples = joinStep(c, tuples, qn, ix.Ords(qn.Tag, index.Test(qn.ValueOp, qn.Value)), &st)
		st.Intermediate = max(st.Intermediate, len(tuples))
	}
	out := make([]Match, len(tuples))
	for i, row := range tuples {
		out[i] = Match{Bindings: row}
	}
	return out, st
}

// joinStep extends every tuple with the qn bindings structurally related
// to the tuple's parent-column binding.
func joinStep(c *xmltree.Columns, tuples [][]int32, qn *pattern.Node, postings []uint32, st *Stats) [][]int32 {
	parentCol := qn.Parent
	// Distinct parent bindings in document order.
	parents := make([]uint32, 0, len(tuples))
	for _, row := range tuples {
		parents = append(parents, uint32(row[parentCol]))
	}
	slices.Sort(parents)
	parents = slices.Compact(parents)

	var pairs []Pair
	if qn.Axis == dewey.Child {
		pairs = ParentChildPairs(c, parents, postings)
	} else {
		pairs = AncestorDescendantPairs(c, parents, postings)
	}
	st.JoinPairs += len(pairs)
	byParent := make(map[int32][]int32)
	for _, p := range pairs {
		byParent[p.Anc] = append(byParent[p.Anc], p.Desc)
	}
	var next [][]int32
	for _, row := range tuples {
		for _, d := range byParent[row[parentCol]] {
			nr := slices.Clone(row)
			nr[qn.ID] = d
			next = append(next, nr)
		}
	}
	return next
}

// Answer is one ranked exact answer: its root's ordinal and score.
type Answer struct {
	Root  int32
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
			total += s.Contribution(id, score.Exact, b)
		}
		root := m.Bindings[0]
		if cur, ok := best[root]; !ok || total > cur.Score {
			best[root] = Answer{Root: root, Score: total}
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
		return answers[i].Root < answers[j].Root
	})
}
