package score

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Figure 1's three heterogeneous books plus a fourth plain one.
const booksXML = `
<library>
  <book>
    <title>wodehouse</title>
    <info>
      <publisher><name>psmith</name><location>london</location></publisher>
      <isbn>1234</isbn>
    </info>
    <price>48.95</price>
  </book>
  <book>
    <title>wodehouse</title>
    <publisher><name>psmith</name></publisher>
    <info><isbn>1234</isbn></info>
  </book>
  <book>
    <reviews><title>wodehouse</title></reviews>
    <info><location>london</location></info>
  </book>
  <book>
    <title>other</title>
  </book>
</library>`

func buildIx(t *testing.T) *index.Index {
	t.Helper()
	doc, err := xmltree.ParseString(booksXML)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc)
}

// TestCollectStatsByHand pins the statistics producer on numbers small
// enough to count by eye (index's conformance test checks it against a
// tree walk on generated documents for every Source implementation).
func TestCollectStatsByHand(t *testing.T) {
	ix := buildIx(t)
	cases := []struct {
		xpath          string
		exact, relaxed index.PredicateStats
	}{
		// Book 3's only title sits under reviews: a descendant, not a child.
		{"//book[./title]", index.PredicateStats{RootCount: 4, Satisfying: 3, TotalPairs: 3, MaxTF: 1},
			index.PredicateStats{RootCount: 4, Satisfying: 4, TotalPairs: 4, MaxTF: 1}},
		{"//book[.//title = 'wodehouse']", index.PredicateStats{RootCount: 4, Satisfying: 3, TotalPairs: 3, MaxTF: 1},
			index.PredicateStats{RootCount: 4, Satisfying: 3, TotalPairs: 3, MaxTF: 1}},
		{"//book[./price < 50]", index.PredicateStats{RootCount: 4, Satisfying: 1, TotalPairs: 1, MaxTF: 1},
			index.PredicateStats{RootCount: 4, Satisfying: 1, TotalPairs: 1, MaxTF: 1}},
		// Exactly two levels down: three titles; anywhere below: all four.
		{"//library[./book/title]", index.PredicateStats{RootCount: 1, Satisfying: 1, TotalPairs: 3, MaxTF: 3},
			index.PredicateStats{RootCount: 1, Satisfying: 1, TotalPairs: 4, MaxTF: 4}},
	}
	for _, c := range cases {
		q := pattern.MustParse(c.xpath)
		st := CollectStats(ix, nil, q)
		last := q.Size() - 1
		if st.Exact[last] != c.exact || st.Relaxed[last] != c.relaxed {
			t.Errorf("%s: stats (%+v, %+v), want (%+v, %+v)", c.xpath, st.Exact[last], st.Relaxed[last], c.exact, c.relaxed)
		}
		if st.ForAxis(last, dewey.Child) != c.exact || st.ForAxis(last, dewey.Descendant) != c.relaxed {
			t.Errorf("%s: ForAxis does not map Child to exact and Descendant to relaxed", c.xpath)
		}
	}
}

func TestTFIDFExactVsRelaxedIDF(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./title = 'wodehouse']")
	s := NewTFIDF(ix, q, Raw)
	exact, relaxed := s.IDF(1)
	// pc(book, title='wodehouse') is satisfied by 2 of 4 books;
	// ad by 3 of 4 — the relaxed predicate is less selective.
	wantExact := math.Log(1 + 4.0/2.0)
	wantRelaxed := math.Log(1 + 4.0/3.0)
	if math.Abs(exact-wantExact) > 1e-12 {
		t.Fatalf("exact idf = %v, want %v", exact, wantExact)
	}
	if math.Abs(relaxed-wantRelaxed) > 1e-12 {
		t.Fatalf("relaxed idf = %v, want %v", relaxed, wantRelaxed)
	}
	if relaxed > exact {
		t.Fatal("relaxed idf must not exceed exact idf")
	}
}

func TestTFIDFUnsatisfiablePredicate(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./nonexistent]")
	s := NewTFIDF(ix, q, Raw)
	exact, relaxed := s.IDF(1)
	want := math.Log(1 + 4.0)
	if exact != want || relaxed != want {
		t.Fatalf("unsatisfiable idf = %v/%v, want max %v", exact, relaxed, want)
	}
}

func TestTFIDFContributionOrdering(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	for _, norm := range []Normalization{Raw, Sparse, Dense} {
		s := NewTFIDF(ix, q, norm)
		for id := 0; id < q.Size(); id++ {
			e := s.Contribution(id, Exact, 0)
			r := s.Contribution(id, Relaxed, 0)
			m := s.Contribution(id, Missing, -1)
			if m != 0 {
				t.Fatalf("%v node %d: missing contributes %v", norm, id, m)
			}
			if r > e {
				t.Fatalf("%v node %d: relaxed %v > exact %v", norm, id, r, e)
			}
			if e < 0 || r < 0 {
				t.Fatalf("%v node %d: negative contribution", norm, id)
			}
			if got := s.MaxContribution(id); math.Abs(got-e) > 1e-12 {
				t.Fatalf("%v node %d: MaxContribution %v != exact %v", norm, id, got, e)
			}
			if got := s.MinContribution(id); math.Abs(got-r) > 1e-12 {
				t.Fatalf("%v node %d: MinContribution %v != relaxed %v", norm, id, got, r)
			}
			exp := s.ExpectedContribution(id)
			if exp < r-1e-12 || exp > e+1e-12 {
				t.Fatalf("%v node %d: expected %v outside [%v, %v]", norm, id, exp, r, e)
			}
		}
	}
}

func TestTFIDFSparseNormalization(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./price]")
	s := NewTFIDF(ix, q, Sparse)
	// Sparse: every predicate's exact contribution is exactly 1.
	for id := 0; id < q.Size(); id++ {
		if got := s.MaxContribution(id); math.Abs(got-1) > 1e-12 {
			t.Fatalf("sparse max contribution of node %d = %v, want 1", id, got)
		}
	}
}

func TestTFIDFDenseNormalization(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./price]")
	s := NewTFIDF(ix, q, Dense)
	// Dense: the single most selective predicate reaches 1; others less.
	max := 0.0
	for id := 0; id < q.Size(); id++ {
		if c := s.MaxContribution(id); c > max {
			max = c
		}
		if c := s.MaxContribution(id); c > 1+1e-12 {
			t.Fatalf("dense contribution of node %d = %v > 1", id, c)
		}
	}
	if math.Abs(max-1) > 1e-12 {
		t.Fatalf("dense global max = %v, want 1", max)
	}
}

// Scores compare exactly: ranking assertions compare exact scorer output.
func TestAnswerScoreRanksExactMatchFirst(t *testing.T) {
	ix := buildIx(t)
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := NewTFIDF(ix, q, Raw)
	books := ix.Nodes("book")
	scores := make([]float64, len(books))
	for i, b := range books {
		scores[i] = AnswerScore(ix, q, s, b.Ord)
	}
	// Book 1 satisfies every exact predicate; book 4 satisfies none
	// beyond being a book.
	for i := 1; i < len(books); i++ {
		if scores[0] < scores[i] {
			t.Fatalf("book 1 (%v) must outscore book %d (%v)", scores[0], i+1, scores[i])
		}
	}
	if scores[3] >= scores[0] {
		t.Fatal("plain book must rank below the exact match")
	}
	if scores[0] <= 0 {
		t.Fatal("exact match must have positive score")
	}
}

func TestAnswerScoreCountsTF(t *testing.T) {
	// Two child titles double the tf contribution of that predicate.
	doc, err := xmltree.ParseString(`<shelf>
	  <book><title>x</title><title>x</title></book>
	  <book><title>x</title></book>
	</shelf>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse("/book[./title = 'x']")
	s := NewTFIDF(ix, q, Raw)
	b1 := AnswerScore(ix, q, s, ix.Nodes("book")[0].Ord)
	b2 := AnswerScore(ix, q, s, ix.Nodes("book")[1].Ord)
	if b1 <= b2 {
		t.Fatalf("tf=2 book (%v) must outscore tf=1 book (%v)", b1, b2)
	}
	exact, _ := s.IDF(1)
	if math.Abs((b1-b2)-exact) > 1e-12 {
		t.Fatalf("score gap %v should equal one idf unit %v", b1-b2, exact)
	}
}

func TestTableScorer(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a>1</a><a>2</a></r>`)
	a1, a2 := doc.Nodes[1].Ord, doc.Nodes[2].Ord
	tab := NewTable(2)
	tab.Set(1, a1, 0.3)
	tab.Set(1, a2, 0.1)
	if got := tab.Contribution(1, Exact, a1); got != 0.3 {
		t.Fatalf("contribution = %v", got)
	}
	if got := tab.Contribution(1, Missing, -1); got != 0 {
		t.Fatalf("missing = %v", got)
	}
	if got := tab.MaxContribution(1); got != 0.3 {
		t.Fatalf("max = %v", got)
	}
	if got := tab.MinContribution(1); got != 0.1 {
		t.Fatalf("min = %v", got)
	}
	if got := tab.ExpectedContribution(1); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("expected = %v", got)
	}
	// Unknown binding gets the default.
	tab.Default = 0.05
	if got := tab.Contribution(0, Exact, a1); got != 0.05 {
		t.Fatalf("default = %v", got)
	}
	// Relaxed discount.
	tab.RelaxedFactor = 0.5
	if got := tab.Contribution(1, Relaxed, a1); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("relaxed = %v", got)
	}
}

// Scores compare exactly: determinism means bit-identical scores across calls.
func TestRandomScorerDeterminism(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a>1</a><a>2</a></r>`)
	n := doc.Nodes[1].Ord
	s1 := NewRandomSparse(7)
	s2 := NewRandomSparse(7)
	if s1.Contribution(1, Exact, n) != s2.Contribution(1, Exact, n) {
		t.Fatal("same seed must give same scores")
	}
	s3 := NewRandomSparse(8)
	if s1.Contribution(1, Exact, n) == s3.Contribution(1, Exact, n) {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

// Scores compare exactly: bound checks are exact by definition.
func TestRandomScorerBounds(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a>1</a><a>2</a><a>3</a></r>`)
	sparse := NewRandomSparse(1)
	dense := NewRandomDense(1)
	f := func(ord uint8, nodeID uint8) bool {
		n := doc.Nodes[int(ord)%doc.Size()].Ord
		id := int(nodeID) % 4
		cs := sparse.Contribution(id, Exact, n)
		cd := dense.Contribution(id, Exact, n)
		if cs < 0 || cs > sparse.MaxContribution(id) {
			return false
		}
		if cd < dense.MinContribution(id)/dense.RelaxedFactor-1e-9 || cd > dense.MaxContribution(id)+1e-9 {
			return false
		}
		// Relaxed never exceeds exact.
		if sparse.Contribution(id, Relaxed, n) > cs {
			return false
		}
		return sparse.Contribution(id, Missing, -1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Scores compare exactly: cluster membership compares exact contributions.
func TestRandomDenseIsClustered(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a></r>`)
	dense := NewRandomDense(3)
	for _, n := range doc.Nodes[1:] {
		c := dense.Contribution(1, Exact, n.Ord)
		if c < 0.45 || c > 0.55 {
			t.Fatalf("dense score %v outside [0.45, 0.55]", c)
		}
	}
	if dense.ExpectedContribution(1) != 0.5 {
		t.Fatalf("dense expectation = %v", dense.ExpectedContribution(1))
	}
}

func TestVariantAndNormalizationStrings(t *testing.T) {
	if Exact.String() != "exact" || Relaxed.String() != "relaxed" || Missing.String() != "missing" {
		t.Fatal("variant names")
	}
	if Variant(9).String() != "variant(?)" {
		t.Fatal("unknown variant")
	}
	if Raw.String() != "raw" || Sparse.String() != "sparse" || Dense.String() != "dense" {
		t.Fatal("normalization names")
	}
	if Normalization(9).String() != "norm(?)" {
		t.Fatal("unknown normalization")
	}
}

func TestRootPredicateIDF(t *testing.T) {
	// For //item every item satisfies the root predicate; for /item only
	// forest roots do.
	doc, _ := xmltree.ParseString(`<site><item/><sub><item/></sub></site>`)
	ix := index.Build(doc)
	qDesc := pattern.MustParse("//item[./x]")
	qRoot := pattern.MustParse("/site[./item]")
	sDesc := NewTFIDF(ix, qDesc, Raw)
	sRoot := NewTFIDF(ix, qRoot, Raw)
	exact, relaxed := sDesc.IDF(0)
	if exact != relaxed {
		t.Fatalf("//item root idf exact %v != relaxed %v", exact, relaxed)
	}
	re, rr := sRoot.IDF(0)
	if re != rr || re <= 0 {
		t.Fatalf("/site root idf = %v/%v", re, rr)
	}
}
