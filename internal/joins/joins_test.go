package joins

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// randomTree builds a random document for join cross-checks.
func randomTree(seed int64) *xmltree.Document {
	r := rand.New(rand.NewSource(seed))
	tags := []string{"a", "b", "c"}
	b := xmltree.NewBuilder().Root("root")
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 4 {
			return
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			b.Open(tags[r.Intn(len(tags))])
			grow(depth + 1)
			b.Close()
		}
	}
	grow(0)
	return b.Doc()
}

func TestAncestorDescendantPairsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		doc := randomTree(seed)
		ix := index.Build(doc)
		got := AncestorDescendantPairs(ix.Cols(), ix.Ords("a", index.ValueTest{}), ix.Ords("b", index.ValueTest{}))
		var want []Pair
		for _, a := range ix.Nodes("a") {
			for _, d := range ix.Nodes("b") {
				if a.ID.Path().IsAncestorOf(d.ID.Path()) {
					want = append(want, Pair{Anc: a.Ord, Desc: d.Ord})
				}
			}
		}
		sortPairs(got)
		sortPairs(want)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d pairs, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pair %d = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestParentChildPairsAgainstBruteForce(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		doc := randomTree(seed)
		ix := index.Build(doc)
		got := ParentChildPairs(ix.Cols(), ix.Ords("a", index.ValueTest{}), ix.Ords("c", index.ValueTest{}))
		count := 0
		for _, a := range ix.Nodes("a") {
			for _, c := range a.Children {
				if c.Tag == "c" {
					count++
				}
			}
		}
		if len(got) != count {
			t.Fatalf("seed %d: %d pairs, want %d", seed, len(got), count)
		}
	}
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Anc != ps[j].Anc {
			return ps[i].Anc < ps[j].Anc
		}
		return ps[i].Desc < ps[j].Desc
	})
}

func TestExactMatchesBookstore(t *testing.T) {
	doc, err := xmltree.ParseString(`
<book><title>wodehouse</title><info><publisher><name>psmith</name></publisher></info></book>
<book><title>wodehouse</title><publisher><name>psmith</name></publisher></book>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	matches, st := ExactMatches(ix, q)
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	if matches[0].Bindings[0] != doc.Roots[0].Ord {
		t.Fatal("wrong root matched")
	}
	for id, b := range matches[0].Bindings {
		if p := q.Nodes[id].Parent; id > 0 && !ix.Cols().Contains(matches[0].Bindings[p], b) {
			t.Fatalf("binding %d (node %d) is not below its parent's (node %d)", id, b, matches[0].Bindings[p])
		}
	}
	if st.JoinPairs == 0 || st.Intermediate == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTopKMatchesWhirlpoolExactMode(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 8, Items: 150})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	for _, xp := range []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	} {
		q := pattern.MustParse(xp)
		s := score.NewTFIDF(ix, q, score.Sparse)
		got, _ := TopK(ix, q, s, 10)
		want := naive.TopK(ix, q, relax.None, s, 10)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, want %d", xp, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("%s: answer %d score %v, want %v", xp, i, got[i].Score, want[i].Score)
			}
		}
	}
}

func TestTopKEmptyResult(t *testing.T) {
	doc, _ := xmltree.ParseString(`<a><b/></a>`)
	ix := index.Build(doc)
	q := pattern.MustParse("/a[./zz]")
	s := score.NewTFIDF(ix, q, score.Sparse)
	got, _ := TopK(ix, q, s, 5)
	if len(got) != 0 {
		t.Fatalf("answers = %v", got)
	}
}

func TestExactMatchesRootAxis(t *testing.T) {
	doc, _ := xmltree.ParseString(`<wrap><a><b/></a></wrap><a><b/></a>`)
	ix := index.Build(doc)
	// /a binds only the forest root a.
	rooted, _ := ExactMatches(ix, pattern.MustParse("/a[./b]"))
	if len(rooted) != 1 {
		t.Fatalf("rooted matches = %d", len(rooted))
	}
	// //a binds both.
	anywhere, _ := ExactMatches(ix, pattern.MustParse("//a[./b]"))
	if len(anywhere) != 2 {
		t.Fatalf("anywhere matches = %d", len(anywhere))
	}
}
