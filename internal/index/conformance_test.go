package index_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// sourceCase is one index.Source implementation under test.
type sourceCase struct {
	name string
	src  index.Source
	// doc is the document whose *xmltree.Node pointers src hands out (a
	// snapshot reader serves its own node slab, not the document it was
	// written from).
	doc *xmltree.Document
	// owns reports whether src enumerates n in Nodes / NodesMatching —
	// everything for whole-corpus sources, one partition for a shard
	// sub-source. Owned nodes are also the anchors src is probed at.
	owns func(n *xmltree.Node) bool
}

// sourceCases builds every index.Source implementation over doc: the
// in-memory Index, the snapshot reader and its per-part sources, the
// partitioned Corpus (split, rebuilt from its stored layout, and
// rebuilt over snapshot parts) and the Corpus's spine view.
func sourceCases(t *testing.T, doc *xmltree.Document, p int) []sourceCase {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Doc: doc}); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := shard.Split(doc, p)
	if err != nil {
		t.Fatal(err)
	}
	all := func(*xmltree.Node) bool { return true }
	cases := []sourceCase{
		{"Index", index.Build(doc), doc, all},
		{"SnapshotReader", r, r.Document(), all},
		{"Corpus", corpus, doc, all},
	}

	onSpine := make(map[int]bool)
	var spine []int
	for _, s := range corpus.Spine() {
		onSpine[s.Ord] = true
		spine = append(spine, s.Ord)
	}
	var units [][]int
	var partSources []index.Source
	for i, part := range corpus.Parts() {
		isUnit := make(map[int]bool)
		var ords []int
		for _, u := range part.Units {
			isUnit[u.Ord] = true
			ords = append(ords, u.Ord)
		}
		ps, err := r.PartSource(ords)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, ords)
		partSources = append(partSources, ps)
		cases = append(cases, sourceCase{fmt.Sprintf("PartSource-%d", i), ps, r.Document(), func(n *xmltree.Node) bool {
			for ; n != nil; n = n.Parent {
				if isUnit[n.Ord] {
					return true
				}
			}
			return false
		}})
	}
	rebuilt, err := shard.FromLayout(doc, spine, units, nil)
	if err != nil {
		t.Fatal(err)
	}
	overSnapshot, err := shard.FromLayout(r.Document(), spine, units, partSources)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		sourceCase{"Corpus/from-layout", rebuilt, doc, all},
		sourceCase{"Corpus/snapshot-parts", overSnapshot, r.Document(), all})
	if subs := corpus.ShardSources(); len(subs) > len(corpus.Parts()) {
		cases = append(cases, sourceCase{"spineView", subs[len(subs)-1], doc,
			func(n *xmltree.Node) bool { return onSpine[n.Ord] }})
	}
	return cases
}

// conformanceDocs returns an XMark document and a few random forests
// whose values exercise every value-test kind, each with the tags and
// value tests worth probing on it.
func conformanceDocs(t *testing.T) []conformanceDoc {
	t.Helper()
	xm, err := xmark.Generate(xmark.Options{Seed: 1, Items: 30})
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, n := range xm.Nodes {
		if n.Tag == "name" && n.Value != "" {
			name = n.Value
			break
		}
	}
	docs := []conformanceDoc{{
		name: "xmark", doc: xm,
		tags: []string{"site", "item", "description", "parlist", "text", "name", "quantity", "incategory", "absent"},
		vts: []index.ValueTest{{}, index.ValueEq(name), index.Test("<", "3"), index.Test("contains", "a"),
			index.Test("!=", "x"), index.Test(">", "100")},
	}}
	r := rand.New(rand.NewSource(42))
	tags := []string{"r", "a", "b", "c", "d"}
	values := []string{"", "", "1", "5", "12", "gold ring", "old"}
	for i := 0; i < 4; i++ {
		doc := xmltree.NewDocument()
		for roots := r.Intn(3) + 1; roots > 0; roots-- {
			var grow func(n *xmltree.Node, depth int)
			grow = func(n *xmltree.Node, depth int) {
				if depth > 5 {
					return
				}
				for kids := r.Intn(4); kids > 0; kids-- {
					grow(doc.AddChild(n, tags[1+r.Intn(len(tags)-1)], values[r.Intn(len(values))]), depth+1)
				}
			}
			grow(doc.AddRoot("r"), 1)
		}
		doc.Renumber()
		docs = append(docs, conformanceDoc{
			name: fmt.Sprintf("random%d", i), doc: doc, tags: append(tags, "absent"),
			vts: []index.ValueTest{{}, index.ValueEq("5"), index.Test("<", "10"), index.Test("contains", "old")},
		})
	}
	return docs
}

type conformanceDoc struct {
	name string
	doc  *xmltree.Document
	tags []string
	vts  []index.ValueTest
}

// walk is the brute-force reference for AppendCandidates: the (tag, vt)
// nodes on the axis of anchor found by walking the tree, document order.
func walk(anchor *xmltree.Node, axis dewey.Axis, tag string, vt index.ValueTest) []*xmltree.Node {
	var pool []*xmltree.Node
	switch axis {
	case dewey.Self:
		pool = []*xmltree.Node{anchor}
	case dewey.Child:
		pool = anchor.Children
	case dewey.Descendant:
		pool = anchor.Descendants()
	}
	var out []*xmltree.Node
	for _, n := range pool {
		if n.Tag == tag && vt.Matches(n.Value) {
			out = append(out, n)
		}
	}
	return out
}

// checkContract holds one source to the three-method contract: Nodes and
// NodesMatching enumerate exactly the owned (tag, vt) nodes in document
// order, and AppendCandidates anchored at any owned node appends exactly
// the tree walk's answer after dst's existing elements — for every axis
// (an unsupported one appends nothing), tag and value-test kind.
func checkContract(t *testing.T, c sourceCase, d conformanceDoc) {
	var anchors []*xmltree.Node
	for i, n := range c.doc.Nodes {
		if c.owns(n) && (i%5 == 0 || n.Parent == nil || !c.owns(n.Parent)) {
			anchors = append(anchors, n)
		}
	}
	sentinel := &xmltree.Node{Tag: "sentinel"}
	for _, tag := range d.tags {
		for _, vt := range d.vts {
			var want []*xmltree.Node
			for _, n := range c.doc.Nodes {
				if c.owns(n) && n.Tag == tag && vt.Matches(n.Value) {
					want = append(want, n)
				}
			}
			if got := c.src.NodesMatching(tag, vt); !slices.Equal(got, want) {
				t.Fatalf("NodesMatching(%q, %v) = %v, want %v", tag, vt, got, want)
			}
			if vt.Any() && !slices.Equal(c.src.Nodes(tag), want) {
				t.Fatalf("Nodes(%q) = %v, want %v", tag, c.src.Nodes(tag), want)
			}
			for _, anchor := range anchors {
				for _, axis := range []dewey.Axis{dewey.Self, dewey.Child, dewey.Descendant, dewey.FollowingSibling} {
					got := c.src.AppendCandidates([]*xmltree.Node{sentinel}, anchor, axis, tag, vt)
					if len(got) == 0 || got[0] != sentinel || !slices.Equal(got[1:], walk(anchor, axis, tag, vt)) {
						t.Fatalf("AppendCandidates(%v, %v, %q, %v) = %v, want sentinel + %v",
							anchor, axis, tag, vt, got, walk(anchor, axis, tag, vt))
					}
				}
			}
		}
	}
}

// checkStats holds score.CollectStats — the single statistics producer,
// which sees a source only through the three methods — to a brute-force
// count: for //root[./tag vt] the exact variant counts children and the
// relaxed one descendants, for //root[.//tag vt] both count descendants,
// and the root node's own predicate counts every owned root (exactly:
// the forest roots only, under a leading /).
func checkStats(t *testing.T, c sourceCase, d conformanceDoc) {
	rootTag := d.tags[1]
	brute := func(axis dewey.Axis, tag string, vt index.ValueTest) index.PredicateStats {
		var st index.PredicateStats
		for _, n := range c.doc.Nodes {
			if !c.owns(n) || n.Tag != rootTag {
				continue
			}
			st.RootCount++
			if tf := len(walk(n, axis, tag, vt)); tf > 0 {
				st.Satisfying++
				st.TotalPairs += tf
				st.MaxTF = max(st.MaxTF, tf)
			}
		}
		return st
	}
	for _, tag := range d.tags[2:] {
		for _, vt := range d.vts {
			pred := tag
			if !vt.Any() {
				pred += " " + vt.String()
			}
			children, descendants := brute(dewey.Child, tag, vt), brute(dewey.Descendant, tag, vt)
			for _, qc := range []struct {
				xpath          string
				exact, relaxed index.PredicateStats
			}{
				{fmt.Sprintf("//%s[./%s]", rootTag, pred), children, descendants},
				{fmt.Sprintf("//%s[.//%s]", rootTag, pred), descendants, descendants},
			} {
				got := score.CollectStats(c.src, nil, pattern.MustParse(qc.xpath))
				if got.Exact[1] != qc.exact || got.Relaxed[1] != qc.relaxed {
					t.Fatalf("%s: stats (%+v, %+v), want (%+v, %+v)", qc.xpath, got.Exact[1], got.Relaxed[1], qc.exact, qc.relaxed)
				}
			}
		}
	}
	roots, forestRoots := 0, 0
	for _, n := range c.doc.Nodes {
		if c.owns(n) && n.Tag == rootTag {
			roots++
			if n.Parent == nil {
				forestRoots++
			}
		}
	}
	every := index.PredicateStats{RootCount: roots, Satisfying: roots, TotalPairs: roots, MaxTF: 1}
	top := index.PredicateStats{RootCount: roots, Satisfying: forestRoots, TotalPairs: forestRoots, MaxTF: 1}
	if got := score.CollectStats(c.src, nil, pattern.MustParse("//"+rootTag)); got.Exact[0] != every || got.Relaxed[0] != every {
		t.Fatalf("//%s root stats (%+v, %+v), want %+v", rootTag, got.Exact[0], got.Relaxed[0], every)
	}
	if got := score.CollectStats(c.src, nil, pattern.MustParse("/"+rootTag)); got.Exact[0] != top || got.Relaxed[0] != every {
		t.Fatalf("/%s root stats (%+v, %+v), want (%+v, %+v)", rootTag, got.Exact[0], got.Relaxed[0], top, every)
	}
}

// TestSourceConformance runs every index.Source implementation through
// the contract and statistics checks on XMark and random documents, at
// shard counts that leave the spine empty (1) and populated (4).
func TestSourceConformance(t *testing.T) {
	for _, d := range conformanceDocs(t) {
		for _, p := range []int{1, 4} {
			for _, c := range sourceCases(t, d.doc, p) {
				t.Run(fmt.Sprintf("%s/p=%d/%s", d.name, p, c.name), func(t *testing.T) {
					checkContract(t, c, d)
					checkStats(t, c, d)
				})
			}
		}
	}
}
