package relax

import (
	"testing"

	"repro/internal/dewey"
	"repro/internal/pattern"
)

// TestCheckLeafDeletionOnlyMode: with only leaf deletion enabled,
// containment predicates behave exactly (no edge generalization, no
// promotion).
func TestCheckLeafDeletionOnlyMode(t *testing.T) {
	q := pattern.MustParse("/book[./info/publisher]")
	var pubID int
	for _, n := range q.Nodes {
		if n.Tag == "publisher" {
			pubID = n.ID
		}
	}
	plan := BuildPlans(q, LeafDeletion)[pubID]
	var infoCond Cond
	for _, c := range plan.Conds {
		if q.Nodes[c.OtherID].Tag == "info" {
			infoCond = c
		}
	}
	doc, ns := treeOf(dewey.ID{0, 1}, dewey.ID{0, 1, 0}, dewey.ID{0, 1, 0, 2}, dewey.ID{0, 2})
	info, direct, deep, outside := ns[0], ns[1], ns[2], ns[3]
	if plan.Check(doc, infoCond, direct, info) != CondExact {
		t.Fatal("direct child must be exact")
	}
	if plan.Check(doc, infoCond, deep, info) != CondFailed {
		t.Fatal("deep descendant must fail without edge generalization")
	}
	if plan.Check(doc, infoCond, outside, info) != CondFailed {
		t.Fatal("outside node must fail without promotion")
	}
	// Leaf-deletion-only probes stay precise where possible.
	if plan.ProbeAxis() != dewey.Descendant {
		t.Fatal("two-level path probes Descendant")
	}
	var infoID int
	for _, n := range q.Nodes {
		if n.Tag == "info" {
			infoID = n.ID
		}
	}
	if BuildPlans(q, LeafDeletion)[infoID].ProbeAxis() != dewey.Child {
		t.Fatal("single pc edge probes Child when no widening relaxation is on")
	}
}

// TestRelaxedProbeAlwaysWidens: any widening relaxation forces Descendant
// probes even for direct pc edges.
func TestRelaxedProbeAlwaysWidens(t *testing.T) {
	q := pattern.MustParse("/a[./b]")
	for _, r := range []Relaxation{EdgeGeneralization, SubtreePromotion, All} {
		if BuildPlans(q, r)[1].ProbeAxis() != dewey.Descendant {
			t.Fatalf("relaxation %v must widen the probe", r)
		}
	}
}

// TestPathPredicateZeroLevels covers the Self predicate edge cases.
func TestPathPredicateZeroLevels(t *testing.T) {
	pp := PathPredicate{MinLevels: 0, Exact: true}
	doc, ns := treeOf(dewey.ID{1, 2}, dewey.ID{1, 2, 0})
	self, child := ns[0], ns[1]
	if !pp.HoldsExact(doc, self, self) || !pp.HoldsRelaxed(doc, self, self) {
		t.Fatal("self predicate must hold on equal IDs")
	}
	if pp.HoldsExact(doc, self, child) {
		t.Fatal("exact self must reject descendants")
	}
	if !pp.HoldsRelaxed(doc, self, child) {
		t.Fatal("relaxed zero-level admits descendants")
	}
}
