package joins

import (
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/xmltree"
)

func TestPairsEmptyInputs(t *testing.T) {
	doc, _ := xmltree.ParseString(`<a><b/></a>`)
	ix := index.Build(doc)
	c := ix.Cols()
	if got := AncestorDescendantPairs(c, nil, ix.Ords("b", index.ValueTest{})); len(got) != 0 {
		t.Fatalf("nil ancs: %d pairs", len(got))
	}
	if got := AncestorDescendantPairs(c, ix.Ords("a", index.ValueTest{}), nil); len(got) != 0 {
		t.Fatalf("nil descs: %d pairs", len(got))
	}
	if got := ParentChildPairs(c, nil, nil); len(got) != 0 {
		t.Fatalf("nil/nil: %d pairs", len(got))
	}
}

func TestPairsSameList(t *testing.T) {
	// Joining a tag's postings with itself: strict containment only.
	doc, _ := xmltree.ParseString(`<a><a><a/></a></a><a/>`)
	ix := index.Build(doc)
	as := ix.Ords("a", index.ValueTest{})
	pairs := AncestorDescendantPairs(ix.Cols(), as, as)
	// a1⊃a2, a1⊃a3, a2⊃a3 — the standalone a4 pairs with nothing.
	if len(pairs) != 3 {
		t.Fatalf("self-join pairs = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		if p.Anc == p.Desc {
			t.Fatal("self pair emitted")
		}
	}
}

func TestTopKDistinctRoots(t *testing.T) {
	doc, _ := xmltree.ParseString(`
<a><b/><b/><b/></a>
<a><b/></a>`)
	ix := index.Build(doc)
	q := pattern.MustParse("/a[./b]")
	s := newUnitScorer(q.Size())
	answers, st := TopK(ix, q, s, 5)
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2 distinct roots", len(answers))
	}
	if st.JoinPairs != 4 {
		t.Fatalf("join pairs = %d, want 4", st.JoinPairs)
	}
}

// unitScorer gives every binding contribution 1.
type unitScorer struct{ n int }

func newUnitScorer(n int) *unitScorer                                { return &unitScorer{n} }
func (u *unitScorer) Contribution(int, score.Variant, int32) float64 { return 1 }
func (u *unitScorer) MaxContribution(int) float64                    { return 1 }
func (u *unitScorer) MinContribution(int) float64                    { return 1 }
func (u *unitScorer) ExpectedContribution(int) float64               { return 1 }
