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
		ancs := ix.Nodes("a")
		descs := ix.Nodes("b")
		got := AncestorDescendantPairs(ancs, descs)
		var want []Pair
		for _, a := range ancs {
			for _, d := range descs {
				if a.ID.Path().IsAncestorOf(d.ID.Path()) {
					want = append(want, Pair{Anc: a, Desc: d})
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
		got := ParentChildPairs(ix.Nodes("a"), ix.Nodes("c"))
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
		if ps[i].Anc.Ord != ps[j].Anc.Ord {
			return ps[i].Anc.Ord < ps[j].Anc.Ord
		}
		return ps[i].Desc.Ord < ps[j].Desc.Ord
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
	if matches[0].Bindings[0] != doc.Roots[0] {
		t.Fatal("wrong root matched")
	}
	for id, b := range matches[0].Bindings {
		if b == nil {
			t.Fatalf("binding %d missing in exact match", id)
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
