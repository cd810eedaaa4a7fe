package relax

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dewey"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// treeOf builds one document holding every given Dewey ID, with the
// ancestors and earlier siblings each implies, and returns its columns
// and the ordinals at those IDs in argument order.
func treeOf(ids ...dewey.ID) (*xmltree.Columns, []int32) {
	// kids holds how many children each node needs, keyed by its Dewey
	// ID ("[]" for the forest's roots).
	kids := make(map[string]int)
	for _, id := range ids {
		for i, c := range id {
			kids[fmt.Sprint(id[:i])] = max(kids[fmt.Sprint(id[:i])], c+1)
		}
	}
	var (
		b    = xmltree.NewBuilder()
		ords = make(map[string]int32) // preorder ordinals by Dewey ID
		grow func(id dewey.ID)
	)
	grow = func(id dewey.ID) {
		for c := 0; c < kids[fmt.Sprint(id)]; c++ {
			child := append(id[:len(id):len(id)], c)
			ords[fmt.Sprint(child)] = int32(len(ords))
			if len(id) == 0 {
				b.Root("r")
			} else {
				b.Open("n")
			}
			grow(child)
			if len(id) > 0 {
				b.Close()
			}
		}
	}
	grow(nil)
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = ords[fmt.Sprint(id)]
	}
	return b.Doc().Columns(), out
}

func TestRelaxationFlags(t *testing.T) {
	if !All.Has(EdgeGeneralization) || !All.Has(LeafDeletion) || !All.Has(SubtreePromotion) {
		t.Fatal("All must enable everything")
	}
	if None.Has(EdgeGeneralization) {
		t.Fatal("None must enable nothing")
	}
	if None.String() != "none" {
		t.Fatalf("None.String() = %q", None.String())
	}
	s := All.String()
	for _, part := range []string{"edge-generalization", "leaf-deletion", "subtree-promotion"} {
		if !strings.Contains(s, part) {
			t.Fatalf("All.String() = %q missing %q", s, part)
		}
	}
}

func TestPathPredicateHolds(t *testing.T) {
	doc, ns := treeOf(dewey.ID{0}, dewey.ID{0, 1}, dewey.ID{0, 1, 2}, dewey.ID{5})
	anc, child, grandchild, other := ns[0], ns[1], ns[2], ns[3]
	cases := []struct {
		pp           PathPredicate
		target       int32
		exact, relax bool
	}{
		{PathPredicate{1, true}, child, true, true},
		{PathPredicate{1, true}, grandchild, false, true}, // too deep for exact pc
		{PathPredicate{2, true}, grandchild, true, true},
		{PathPredicate{2, true}, child, false, true}, // too shallow exactly; relaxed admits any descendant
		{PathPredicate{1, false}, grandchild, true, true},
		{PathPredicate{2, false}, child, false, true},
		{PathPredicate{0, true}, anc, true, true}, // self
		{PathPredicate{0, true}, child, false, true},
	}
	for i, c := range cases {
		if got := c.pp.HoldsExact(doc, anc, c.target); got != c.exact {
			t.Errorf("case %d: HoldsExact = %v, want %v", i, got, c.exact)
		}
		if got := c.pp.HoldsRelaxed(doc, anc, c.target); got != c.relax {
			t.Errorf("case %d: HoldsRelaxed = %v, want %v", i, got, c.relax)
		}
	}
	// Non-descendant fails both.
	pp := PathPredicate{1, true}
	if pp.HoldsExact(doc, anc, other) || pp.HoldsRelaxed(doc, anc, other) {
		t.Fatal("non-descendant must fail")
	}
}

func TestPathPredicateRelaxedForm(t *testing.T) {
	pp := PathPredicate{3, true}
	r := pp.Relaxed()
	if r.Exact || r.MinLevels != 1 {
		t.Fatalf("Relaxed() = %+v", r)
	}
	if pp.String() != "desc(=3)" || r.String() != "desc(>=1)" {
		t.Fatalf("String: %s / %s", pp, r)
	}
}

func TestComposePath(t *testing.T) {
	// /book[./info/publisher/name and .//title]
	q := pattern.MustParse("/book[./info/publisher/name = 'x' and .//title]")
	var nameID, titleID, pubID int
	for _, n := range q.Nodes {
		switch n.Tag {
		case "name":
			nameID = n.ID
		case "title":
			titleID = n.ID
		case "publisher":
			pubID = n.ID
		}
	}
	if pp := ComposePath(q, 0, nameID); pp != (PathPredicate{3, true}) {
		t.Fatalf("book->name = %+v, want exactly 3 levels", pp)
	}
	if pp := ComposePath(q, 0, titleID); pp != (PathPredicate{1, false}) {
		t.Fatalf("book->title = %+v, want >=1 level", pp)
	}
	if pp := ComposePath(q, pubID, nameID); pp != (PathPredicate{1, true}) {
		t.Fatalf("publisher->name = %+v", pp)
	}
	if pp := ComposePath(q, 0, 0); pp != (PathPredicate{0, true}) {
		t.Fatalf("self = %+v", pp)
	}
}

func TestComposePathPanicsOnNonDescendant(t *testing.T) {
	q := pattern.MustParse("/a[./b and ./c]")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ComposePath(q, 1, 2)
}

func TestBuildPlansBookQuery(t *testing.T) {
	// Figure 2(a): /book[./title='wodehouse' and ./info/publisher/name='psmith']
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	plans := BuildPlans(q, All)
	if len(plans) != q.Size() {
		t.Fatalf("plans = %d", len(plans))
	}
	var pub *ServerPlan
	var pubID int
	for id, p := range plans {
		if p.Tag == "publisher" {
			pub, pubID = p, id
		}
	}
	if pub == nil {
		t.Fatal("no publisher plan")
	}
	// Section 5.2.1: the publisher server checks pc(info, publisher) and
	// pc(publisher, name) — one ancestor cond (info) and one descendant
	// cond (name) — plus the root relation (book, distance 2).
	if pub.RootPath != (PathPredicate{2, true}) {
		t.Fatalf("publisher RootPath = %+v", pub.RootPath)
	}
	var infoCond, nameCond *Cond
	for i := range pub.Conds {
		c := &pub.Conds[i]
		switch q.Nodes[c.OtherID].Tag {
		case "info":
			infoCond = c
		case "name":
			nameCond = c
		}
	}
	if infoCond == nil || !infoCond.OtherIsAncestor || infoCond.Path != (PathPredicate{1, true}) || !infoCond.DirectParent {
		t.Fatalf("info cond = %+v", infoCond)
	}
	if nameCond == nil || nameCond.OtherIsAncestor || nameCond.Path != (PathPredicate{1, true}) || !nameCond.DirectParent {
		t.Fatalf("name cond = %+v", nameCond)
	}
	// The title branch is unrelated to publisher: no cond.
	for _, c := range pub.Conds {
		if q.Nodes[c.OtherID].Tag == "title" {
			t.Fatal("publisher must not check title")
		}
	}
	_ = pubID
}

func TestBuildPlansRoot(t *testing.T) {
	q := pattern.MustParse("/book[./title]")
	plans := BuildPlans(q, All)
	if plans[0].RootPath != (PathPredicate{1, true}) {
		t.Fatalf("rooted /book must bind forest roots: %+v", plans[0].RootPath)
	}
	q2 := pattern.MustParse("//item[./name]")
	plans2 := BuildPlans(q2, All)
	if plans2[0].RootPath != (PathPredicate{1, false}) {
		t.Fatalf("//item root predicate = %+v", plans2[0].RootPath)
	}
}

func TestProbeAxis(t *testing.T) {
	q := pattern.MustParse("/book[./title and ./info/publisher]")
	exact := BuildPlans(q, None)
	relaxed := BuildPlans(q, All)
	var titleID, pubID int
	for _, n := range q.Nodes {
		switch n.Tag {
		case "title":
			titleID = n.ID
		case "publisher":
			pubID = n.ID
		}
	}
	if exact[titleID].ProbeAxis() != dewey.Child {
		t.Fatal("exact direct child should probe Child")
	}
	if exact[pubID].ProbeAxis() != dewey.Descendant {
		t.Fatal("two-level exact path probes Descendant (filtered by conds)")
	}
	if relaxed[titleID].ProbeAxis() != dewey.Descendant {
		t.Fatal("relaxed probe must widen to Descendant")
	}
}

func TestCheckCondVariants(t *testing.T) {
	q := pattern.MustParse("/book[./info/publisher]")
	var pubID int
	for _, n := range q.Nodes {
		if n.Tag == "publisher" {
			pubID = n.ID
		}
	}
	plans := BuildPlans(q, All)
	pub := plans[pubID]
	var infoCond Cond
	for _, c := range pub.Conds {
		if q.Nodes[c.OtherID].Tag == "info" {
			infoCond = c
		}
	}
	doc, ns := treeOf(dewey.ID{0, 1}, dewey.ID{0, 1, 0}, dewey.ID{0, 1, 0, 3}, dewey.ID{0, 2, 0})
	info, directChild, deepDesc, elsewhere := ns[0], ns[1], ns[2], ns[3]

	if got := pub.Check(doc, infoCond, directChild, info); got != CondExact {
		t.Fatalf("direct child = %v, want exact", got)
	}
	if got := pub.Check(doc, infoCond, deepDesc, info); got != CondRelaxed {
		t.Fatalf("deep descendant = %v, want relaxed (edge generalization)", got)
	}
	if got := pub.Check(doc, infoCond, elsewhere, info); got != CondRelaxed {
		t.Fatalf("non-descendant = %v, want relaxed (subtree promotion waives containment)", got)
	}

	// Without promotion, a non-descendant fails; a deep descendant still
	// passes via edge generalization.
	egOnly := BuildPlans(q, EdgeGeneralization)[pubID]
	if got := egOnly.Check(doc, infoCond, elsewhere, info); got != CondFailed {
		t.Fatalf("eg-only non-descendant = %v, want failed", got)
	}
	if got := egOnly.Check(doc, infoCond, deepDesc, info); got != CondRelaxed {
		t.Fatalf("eg-only deep descendant = %v, want relaxed", got)
	}

	// With no relaxation at all only the exact form passes.
	exact := BuildPlans(q, None)[pubID]
	if got := exact.Check(doc, infoCond, deepDesc, info); got != CondFailed {
		t.Fatalf("exact-mode deep descendant = %v, want failed", got)
	}
	if got := exact.Check(doc, infoCond, directChild, info); got != CondExact {
		t.Fatalf("exact-mode direct child = %v", got)
	}
}

func TestBuildPlansCondCoverage(t *testing.T) {
	// Every ancestor/descendant pattern pair must yield exactly one cond
	// on each side.
	q := pattern.MustParse("//item[./mailbox/mail/text[./bold and ./keyword] and ./name]")
	plans := BuildPlans(q, All)
	for id := 1; id < q.Size(); id++ {
		sp := plans[id]
		want := 0
		// The root relation is the structural predicate, not a cond.
		for other := 1; other < q.Size(); other++ {
			if other != id && (q.IsDescendant(id, other) || q.IsDescendant(other, id)) {
				want++
			}
		}
		if len(sp.Conds) != want {
			t.Fatalf("node %s: %d conds, want %d", sp.Tag, len(sp.Conds), want)
		}
	}
}

// Property: exact satisfaction always implies relaxed satisfaction, for
// random predicates and random ancestor/target pairs.
func TestPropExactImpliesRelaxed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pp := PathPredicate{MinLevels: r.Intn(4), Exact: r.Intn(2) == 0}
		anc := make(dewey.ID, 1+r.Intn(3)) // a document node, not the virtual root
		for i := range anc {
			anc[i] = r.Intn(3)
		}
		target := append(dewey.ID(nil), anc...)
		for i := 0; i < r.Intn(4); i++ {
			target = append(target, r.Intn(3))
		}
		doc, ns := treeOf(anc, target)
		if pp.HoldsExact(doc, ns[0], ns[1]) && !pp.HoldsRelaxed(doc, ns[0], ns[1]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
