package core

import (
	"fmt"

	"repro/internal/dewey"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/xmltree"
)

// MatchKind classifies how a query node was satisfied in an answer.
type MatchKind int

const (
	// MatchExact: the binding satisfies the original, unrelaxed pattern
	// position.
	MatchExact MatchKind = iota
	// MatchEdgeGeneralized: the binding is a deeper descendant than the
	// pc chain prescribes (edge generalization).
	MatchEdgeGeneralized
	// MatchPromoted: the binding is not contained in its pattern
	// parent's binding (subtree promotion re-anchored it).
	MatchPromoted
	// MatchDeleted: the node was relaxed away (leaf deletion).
	MatchDeleted
)

// String names the kind.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchEdgeGeneralized:
		return "edge-generalized"
	case MatchPromoted:
		return "promoted"
	case MatchDeleted:
		return "deleted"
	default:
		return "kind(?)"
	}
}

// Explanation reports how one query node was satisfied.
type Explanation struct {
	// NodeID is the query node.
	NodeID int
	// Tag is the node's tag, for display.
	Tag string
	// Kind classifies the satisfaction.
	Kind MatchKind
	// Detail is a human-readable sentence.
	Detail string
}

// Explain classifies every query node of an answer, given its bindings
// as nodes (nil for a node relaxed away): which bindings are exact,
// which required edge generalization or subtree promotion, and which
// were deleted. It makes the engine's relaxation decisions legible in
// results (see examples/bookstore).
func Explain(q *pattern.Query, bindings []*xmltree.Node) []Explanation {
	out := make([]Explanation, 0, q.Size())
	for id := 0; id < q.Size(); id++ {
		n := q.Nodes[id]
		b := bindings[id]
		e := Explanation{NodeID: id, Tag: n.Tag}
		switch {
		case id == 0:
			if n.Axis == dewey.Child && b.Level() != 1 {
				e.Kind = MatchEdgeGeneralized
				e.Detail = fmt.Sprintf("returned node bound at depth %d (/%s generalized to //%s)", b.Level(), n.Tag, n.Tag)
			} else {
				e.Kind = MatchExact
				e.Detail = "returned node"
			}
		case b == nil:
			e.Kind = MatchDeleted
			e.Detail = "relaxed away by leaf deletion"
		default:
			e.Kind, e.Detail = classify(q, bindings, id)
		}
		out = append(out, e)
	}
	return out
}

// classify determines a bound node's kind from its pattern parent's
// binding and the exact composed path from the root.
func classify(q *pattern.Query, bindings []*xmltree.Node, id int) (MatchKind, string) {
	n := q.Nodes[id]
	b := bindings[id]
	root := bindings[0]
	parentBind := bindings[n.Parent]

	if parentBind == nil {
		return MatchPromoted, fmt.Sprintf("re-anchored below %s (its pattern parent %s was deleted)", root.Tag, q.Nodes[n.Parent].Tag)
	}
	if !parentBind.Contains(b) {
		return MatchPromoted, fmt.Sprintf("not contained in its pattern parent's binding %s (subtree promotion)", parentBind.ID)
	}
	exactEdge := n.Axis == dewey.Descendant || b.Level()-parentBind.Level() == 1
	rootExact := root.Contains(b) && relax.ComposePath(q, 0, id).DepthHoldsExact(b.Level()-root.Level())
	if exactEdge && rootExact {
		return MatchExact, "matched at its exact pattern position"
	}
	if exactEdge {
		// The edge to the parent is exact but an ancestor edge was
		// relaxed, so the absolute position differs from the pattern's.
		return MatchEdgeGeneralized, fmt.Sprintf("in exact position under %s, whose own position was relaxed", q.Nodes[n.Parent].Tag)
	}
	return MatchEdgeGeneralized, fmt.Sprintf("matched %d level(s) below its pattern parent (pc generalized to ad)", b.Level()-parentBind.Level())
}
