package core

import (
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// explain is Explain over an engine answer, its ordinals resolved to
// ix's nodes.
func explain(ix *index.Index, q *pattern.Query, a Answer) []Explanation {
	nodes := make([]*xmltree.Node, len(a.Bindings))
	for i, o := range a.Bindings {
		if o >= 0 {
			nodes[i] = ix.Document().Nodes[o]
		}
	}
	return Explain(q, nodes)
}

func TestExplainBookstore(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 4, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 4 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	byTag := func(ex []Explanation, tag string) Explanation {
		for _, e := range ex {
			if e.Tag == tag {
				return e
			}
		}
		t.Fatalf("no explanation for %s", tag)
		return Explanation{}
	}

	// Answer 1 (book 1): everything exact.
	ex := explain(ix, q, res.Answers[0])
	if len(ex) != q.Size() {
		t.Fatalf("explanations = %d", len(ex))
	}
	for _, e := range ex {
		if e.Kind != MatchExact {
			t.Fatalf("book 1 %s: kind = %v (%s)", e.Tag, e.Kind, e.Detail)
		}
	}

	// Book 2: publisher hangs off book directly — info is deleted or the
	// publisher promoted; name stays exact relative to publisher but the
	// root path is broken, so it cannot be MatchExact.
	var book2 *Answer
	for i := range res.Answers {
		if res.Answers[i].Root == ix.Nodes("book")[1].Ord {
			book2 = &res.Answers[i]
		}
	}
	if book2 == nil {
		t.Fatal("book 2 not in answers")
	}
	ex2 := explain(ix, q, *book2)
	pub := byTag(ex2, "publisher")
	info := byTag(ex2, "info")
	if pub.Kind == MatchExact {
		t.Fatalf("book 2 publisher should not be exact: %s", pub.Detail)
	}
	if info.Kind == MatchExact && pub.Kind != MatchPromoted {
		t.Fatalf("book 2: info %v / publisher %v inconsistent", info.Kind, pub.Kind)
	}

	// Book 3: title is nested under reviews — edge generalized; publisher
	// and name deleted.
	var book3 *Answer
	for i := range res.Answers {
		if res.Answers[i].Root == ix.Nodes("book")[2].Ord {
			book3 = &res.Answers[i]
		}
	}
	ex3 := explain(ix, q, *book3)
	title := byTag(ex3, "title")
	if title.Kind != MatchEdgeGeneralized {
		t.Fatalf("book 3 title kind = %v (%s)", title.Kind, title.Detail)
	}
	name := byTag(ex3, "name")
	if name.Kind != MatchDeleted {
		t.Fatalf("book 3 name kind = %v", name.Kind)
	}
}

func TestExplainRootGeneralized(t *testing.T) {
	xml := `<wrap><book><title>x</title></book></wrap>`
	ix, q := buildEnv(t, xml, "/book[./title]")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 1, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	ex := explain(ix, q, res.Answers[0])
	if ex[0].Kind != MatchEdgeGeneralized {
		t.Fatalf("nested /book root should be edge-generalized: %v (%s)", ex[0].Kind, ex[0].Detail)
	}
	if !strings.Contains(ex[0].Detail, "//book") {
		t.Fatalf("detail = %q", ex[0].Detail)
	}
}

func TestMatchKindStrings(t *testing.T) {
	names := map[MatchKind]string{
		MatchExact: "exact", MatchEdgeGeneralized: "edge-generalized",
		MatchPromoted: "promoted", MatchDeleted: "deleted",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if MatchKind(9).String() != "kind(?)" {
		t.Fatal("unknown kind")
	}
}
