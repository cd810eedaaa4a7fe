package index

import (
	"slices"
	"testing"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

const libraryXML = `
<library>
  <book>
    <title>wodehouse</title>
    <info>
      <publisher><name>psmith</name></publisher>
    </info>
  </book>
  <book>
    <title>wodehouse</title>
    <reviews><title>great</title></reviews>
  </book>
  <book>
    <info><title>nested</title></info>
  </book>
</library>`

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNodesPostings(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	if books := ix.Nodes("book"); len(books) != 3 {
		t.Fatalf("books = %d", len(books))
	}
	if got := ix.Nodes("nothing"); len(got) != 0 {
		t.Fatalf("absent tag has %d postings", len(got))
	}
	titles := ix.Nodes("title")
	if len(titles) != 4 {
		t.Fatalf("titles = %d", len(titles))
	}
	// Document order.
	for i := 1; i < len(titles); i++ {
		if slices.Compare(titles[i].ID.Path(), titles[i-1].ID.Path()) <= 0 {
			t.Fatal("postings out of document order")
		}
	}
	if wode := ix.NodesMatching("title", ValueEq("wodehouse")); len(wode) != 2 {
		t.Fatalf("wodehouse titles = %d", len(wode))
	}
	if got := ix.NodesMatching("title", ValueEq("absent")); len(got) != 0 {
		t.Fatalf("absent value = %d", len(got))
	}
}

// TestAppendCandidatesByHand pins the probe semantics on a document small
// enough to check by eye; conformance_test.go checks them exhaustively
// against a tree walk for every Source implementation.
func TestAppendCandidatesByHand(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	books := ix.Nodes("book")
	lib := ix.Nodes("library")[0]
	cases := []struct {
		what   string
		anchor *xmltree.Node
		axis   dewey.Axis
		tag    string
		vt     ValueTest
		want   int
	}{
		{"child title of book1", books[0], dewey.Child, "title", ValueEq(""), 1},
		{"name is no child of book1", books[0], dewey.Child, "name", ValueEq(""), 0},
		{"descendant name=psmith of book1", books[0], dewey.Descendant, "name", ValueEq("psmith"), 1},
		{"book2's own and reviews/title", books[1], dewey.Descendant, "title", ValueEq(""), 2},
		{"child title=wodehouse of book2", books[1], dewey.Child, "title", ValueEq("wodehouse"), 1},
		{"all titles under library", lib, dewey.Descendant, "title", ValueEq(""), 4},
		{"self", books[0], dewey.Self, "book", ValueEq(""), 1},
		{"self with wrong tag", books[0], dewey.Self, "title", ValueEq(""), 0},
	}
	for _, c := range cases {
		if got := ix.AppendCandidates(nil, c.anchor, c.axis, c.tag, c.vt); len(got) != c.want {
			t.Errorf("%s: %d candidates, want %d (%v)", c.what, len(got), c.want, got)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	st := PredicateStats{RootCount: 4, Satisfying: 2, TotalPairs: 6, MaxTF: 5}
	if got := st.Selectivity(); got != 0.5 {
		t.Fatalf("Selectivity = %v", got)
	}
	if got := st.MeanFanout(); got != 3 {
		t.Fatalf("MeanFanout = %v", got)
	}
	zero := PredicateStats{}
	if zero.Selectivity() != 0 || zero.MeanFanout() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}
