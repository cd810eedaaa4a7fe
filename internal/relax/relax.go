// Package relax implements the paper's query relaxation framework
// (Sections 2 and 5.2.1). Three relaxations — edge generalization
// (pc → ad), leaf deletion (a leaf node becomes optional) and subtree
// promotion (a subtree re-anchors to its grandparent) — and their
// compositions turn a tree pattern into a family of relaxed queries whose
// exact answers are the approximate answers of the original query.
//
// Rather than enumerating relaxed queries, Whirlpool encodes all
// relaxations in the evaluation plan (plan-relaxation, [2]): every server
// checks (i) a *structural predicate* relating the server node to the
// query root — the relaxed composition of the axes on the path between
// them — and (ii) a *conditional predicate sequence* against the other
// query nodes bound so far, each an ordered "if not exact, then relaxed"
// check. BuildPlans is the analog of the paper's Algorithm 1 (Server
// Predicates Generation).
package relax

import (
	"fmt"

	"repro/internal/dewey"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Relaxation is a bitmask of enabled relaxations.
type Relaxation uint8

const (
	// EdgeGeneralization replaces a pc edge by ad.
	EdgeGeneralization Relaxation = 1 << iota
	// LeafDeletion makes a leaf node optional. Composed with itself it
	// deletes whole subtrees bottom-up.
	LeafDeletion
	// SubtreePromotion moves a subtree from its parent to its
	// grandparent; composed with itself it re-anchors a subtree to any
	// pattern ancestor, ultimately the query root.
	SubtreePromotion

	// None disables relaxation: only exact matches qualify.
	None Relaxation = 0
	// All enables every relaxation — the paper's approximate-match
	// setting.
	All = EdgeGeneralization | LeafDeletion | SubtreePromotion
)

// Has reports whether r enables the given relaxation.
func (r Relaxation) Has(x Relaxation) bool { return r&x != 0 }

// String lists the enabled relaxations.
func (r Relaxation) String() string {
	if r == None {
		return "none"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if r.Has(EdgeGeneralization) {
		add("edge-generalization")
	}
	if r.Has(LeafDeletion) {
		add("leaf-deletion")
	}
	if r.Has(SubtreePromotion) {
		add("subtree-promotion")
	}
	return s
}

// PathPredicate is the composition of the axes along a pattern path: the
// target must be a strict descendant of the anchor with a level
// difference of exactly MinLevels (Exact) or at least MinLevels. A chain
// of k pc edges composes to {MinLevels: k, Exact: true}; any ad edge on
// the path drops Exact.
type PathPredicate struct {
	MinLevels int
	Exact     bool
}

// HoldsExact reports whether node target relates to node anchor of doc
// exactly as the unrelaxed path prescribes: a level difference and a
// preorder-interval containment test.
func (p PathPredicate) HoldsExact(doc *xmltree.Columns, anchor, target int32) bool {
	diff := int(doc.Level[target] - doc.Level[anchor])
	if !p.DepthHoldsExact(diff) {
		return false
	}
	if p.MinLevels == 0 && diff == 0 {
		return anchor == target
	}
	return doc.Contains(anchor, target)
}

// DepthHoldsExact reports whether the unrelaxed path allows a target diff
// levels below its anchor — all of HoldsExact for a target already known
// to be a strict descendant of the anchor.
func (p PathPredicate) DepthHoldsExact(diff int) bool {
	return diff >= p.MinLevels && (!p.Exact || diff == p.MinLevels)
}

// HoldsRelaxed reports whether target relates to anchor under full edge
// generalization: any strict descendant (or self when MinLevels is 0).
func (p PathPredicate) HoldsRelaxed(doc *xmltree.Columns, anchor, target int32) bool {
	if p.MinLevels == 0 && anchor == target {
		return true
	}
	return doc.Contains(anchor, target)
}

// Relaxed returns the edge-generalized form of the predicate.
func (p PathPredicate) Relaxed() PathPredicate {
	return PathPredicate{MinLevels: minInt(p.MinLevels, 1), Exact: false}
}

// String renders e.g. "desc(=2)" or "desc(>=1)".
func (p PathPredicate) String() string {
	if p.Exact {
		return fmt.Sprintf("desc(=%d)", p.MinLevels)
	}
	return fmt.Sprintf("desc(>=%d)", p.MinLevels)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ComposePath composes the original (unrelaxed) axes along the pattern
// path from ancestor anc down to descendant desc (Algorithm 1's
// getComposition). anc == desc yields the Self predicate {0, true}.
// It panics when desc is not in anc's pattern subtree.
func ComposePath(q *pattern.Query, anc, desc int) PathPredicate {
	pp := PathPredicate{MinLevels: 0, Exact: true}
	cur := desc
	for cur != anc {
		n := q.Nodes[cur]
		if n.Parent == -1 {
			panic(fmt.Sprintf("relax: node %d is not a pattern descendant of %d", desc, anc))
		}
		pp.MinLevels++
		if n.Axis == dewey.Descendant {
			pp.Exact = false
		}
		cur = n.Parent
	}
	return pp
}

// Cond is one entry of a server's conditional predicate sequence: the
// pairwise predicate between the server node and another query node that
// is its pattern ancestor or descendant.
type Cond struct {
	// OtherID is the other query node.
	OtherID int
	// OtherIsAncestor is true when the other node is the server node's
	// pattern ancestor (the predicate runs other → server), false when
	// it is a pattern descendant (server → other).
	OtherIsAncestor bool
	// Path is the exact composed predicate between the two nodes.
	Path PathPredicate
	// DirectParent is true when the other node is the server node's
	// immediate pattern parent (or immediate child when
	// OtherIsAncestor is false); exactness of the component predicate
	// hinges on these.
	DirectParent bool
}

// ServerPlan is everything one Whirlpool server needs to process partial
// matches for its query node: the structural probe predicate against the
// bound root, and the conditional predicate sequence against the other
// query nodes (Algorithm 1's output).
type ServerPlan struct {
	// NodeID is the query node this server instantiates.
	NodeID int
	// Tag and Value are the node's label predicates; ValueOp is the
	// content-predicate operator ("" means equality when Value is set).
	Tag, Value, ValueOp string
	// RootPath is the exact composed predicate root → node.
	RootPath PathPredicate
	// Conds is the conditional predicate sequence, in query-node order.
	Conds []Cond
	// Relax is the enabled relaxation set.
	Relax Relaxation
}

// ProbeAxis returns the axis the structural index probe should use:
// Child when the unrelaxed composition is a single pc edge and no
// relaxation can widen it, Descendant otherwise.
func (sp *ServerPlan) ProbeAxis() dewey.Axis {
	if sp.Relax.Has(EdgeGeneralization) || sp.Relax.Has(SubtreePromotion) {
		return dewey.Descendant
	}
	if sp.RootPath.Exact && sp.RootPath.MinLevels == 1 {
		return dewey.Child
	}
	return dewey.Descendant
}

// BuildPlans derives a ServerPlan for every non-root query node, plus a
// plan for the root itself at index 0 (its structural predicate is the
// root's own axis to the virtual document root). The slice is indexed by
// query node ID.
func BuildPlans(q *pattern.Query, r Relaxation) []*ServerPlan {
	plans := make([]*ServerPlan, q.Size())
	for id := 0; id < q.Size(); id++ {
		n := q.Nodes[id]
		sp := &ServerPlan{
			NodeID:  id,
			Tag:     n.Tag,
			Value:   n.Value,
			ValueOp: n.ValueOp,
			Relax:   r,
		}
		if id != 0 {
			sp.RootPath = ComposePath(q, 0, id)
			// The relation to the root (other == 0) is the structural
			// predicate itself — only non-root relatives yield
			// conditional predicates.
			for other := 1; other < q.Size(); other++ {
				if other == id {
					continue
				}
				switch {
				case q.IsDescendant(id, other):
					sp.Conds = append(sp.Conds, Cond{
						OtherID:         other,
						OtherIsAncestor: true,
						Path:            ComposePath(q, other, id),
						DirectParent:    n.Parent == other,
					})
				case q.IsDescendant(other, id):
					sp.Conds = append(sp.Conds, Cond{
						OtherID:         other,
						OtherIsAncestor: false,
						Path:            ComposePath(q, id, other),
						DirectParent:    q.Nodes[other].Parent == id,
					})
				}
			}
		} else {
			// The root's structural predicate relates it to the virtual
			// document root: Child ⇒ forest root (level 1), Descendant ⇒
			// any level.
			sp.RootPath = PathPredicate{MinLevels: 1, Exact: n.Axis == dewey.Child}
		}
		plans[id] = sp
	}
	return plans
}

// CondResult classifies how a conditional predicate was satisfied.
type CondResult int

const (
	// CondExact: the unrelaxed predicate holds.
	CondExact CondResult = iota
	// CondRelaxed: only a relaxed form holds (or the relation is waived
	// by subtree promotion / leaf deletion).
	CondRelaxed
	// CondFailed: no enabled relaxation can reconcile the bindings.
	CondFailed
)

// Check evaluates the conditional predicate c of plan sp for a candidate
// binding (server node) against the bound other node, both nodes of
// doc. other must be bound (callers skip conditions whose other node is
// unbound or missing, except for the missing-parent rule handled by the
// engine).
func (sp *ServerPlan) Check(doc *xmltree.Columns, c Cond, server, other int32) CondResult {
	anc, desc := other, server
	if !c.OtherIsAncestor {
		anc, desc = server, other
	}
	if c.Path.HoldsExact(doc, anc, desc) {
		return CondExact
	}
	if sp.Relax.Has(EdgeGeneralization) && c.Path.HoldsRelaxed(doc, anc, desc) {
		return CondRelaxed
	}
	if sp.Relax.Has(SubtreePromotion) {
		// Promotion (composed to any ancestor, ultimately the root)
		// waives the pairwise containment entirely — both nodes are
		// descendants of the root binding, which the structural probe
		// guarantees.
		return CondRelaxed
	}
	return CondFailed
}
