package naive

import (
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

const forestXML = `
<book>
  <title>wodehouse</title>
  <info><publisher><name>psmith</name></publisher></info>
</book>
<book>
  <title>wodehouse</title>
  <publisher><name>psmith</name></publisher>
</book>
<book>
  <reviews><title>wodehouse</title></reviews>
</book>`

func env(t *testing.T, xpath string) (*index.Index, *pattern.Query, *score.TFIDF) {
	t.Helper()
	doc, err := xmltree.ParseString(forestXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse(xpath)
	return ix, q, score.NewTFIDF(ix, q, score.Sparse)
}

func TestTopKRelaxedIncludesAllBooks(t *testing.T) {
	ix, q, s := env(t, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	res := TopK(ix, q, relax.All, s, 3)
	if len(res) != 3 {
		t.Fatalf("answers = %d, want 3", len(res))
	}
	if res[0].Root != ix.Nodes("book")[0] {
		t.Fatal("exact match must rank first")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("not sorted")
		}
	}
}

func TestTopKExactMode(t *testing.T) {
	ix, q, s := env(t, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	res := TopK(ix, q, relax.None, s, 3)
	if len(res) != 1 || res[0].Root != ix.Nodes("book")[0] {
		t.Fatalf("exact answers = %v", res)
	}
}

func TestTopKRespectsK(t *testing.T) {
	ix, q, s := env(t, "/book[./title]")
	res := TopK(ix, q, relax.All, s, 2)
	if len(res) != 2 {
		t.Fatalf("answers = %d, want 2", len(res))
	}
}

func TestEdgeGenOnlyRequiresContainment(t *testing.T) {
	ix, q, s := env(t, "/book[./info/publisher/name = 'psmith']")
	// Book 2's publisher hangs directly off book, not under info; with
	// edge generalization alone (no promotion/deletion), the full chain
	// must still be contained, so only book 1 answers.
	res := TopK(ix, q, relax.EdgeGeneralization, s, 3)
	if len(res) != 1 || res[0].Root != ix.Nodes("book")[0] {
		t.Fatalf("eg-only answers = %v", res)
	}
}

// Scores compare exactly: fixture scores are exact by construction.
func TestLeafDeletionWithPromotion(t *testing.T) {
	ix, q, s := env(t, "/book[./info/publisher/name = 'psmith']")
	// With the full relaxation set, book 2's promoted publisher/name and
	// book 3's everything-deleted match all qualify.
	res := TopK(ix, q, relax.All, s, 3)
	if len(res) != 3 {
		t.Fatalf("full-relax answers = %d, want 3", len(res))
	}
	if res[0].Root != ix.Nodes("book")[0] || res[0].Score <= res[1].Score {
		t.Fatal("exact match must strictly win")
	}
}

// TestRewritingAgreesWithDirectEvaluation cross-checks the two naive
// evaluation strategies — direct relaxed-tuple enumeration and
// rewriting-based closure evaluation — on the bookstore forest.
func TestRewritingAgreesWithDirectEvaluation(t *testing.T) {
	for _, xp := range []string{
		"/book[./title = 'wodehouse']",
		"/book[./info/publisher/name = 'psmith']",
		"/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']",
	} {
		ix, q, s := env(t, xp)
		direct := TopK(ix, q, relax.All, s, 5)
		rewritten, truncated := TopKByRewriting(ix, q, relax.All, s, 5, 0)
		if truncated {
			t.Fatalf("%s: closure truncated without a cap", xp)
		}
		if len(direct) != len(rewritten) {
			t.Fatalf("%s: %d direct vs %d rewritten answers", xp, len(direct), len(rewritten))
		}
		for i := range direct {
			if direct[i].Root != rewritten[i].Root {
				t.Fatalf("%s: answer %d root %v vs %v", xp, i, direct[i].Root, rewritten[i].Root)
			}
			if diff := direct[i].Score - rewritten[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: answer %d score %v vs %v", xp, i, direct[i].Score, rewritten[i].Score)
			}
		}
	}
}

// TestRewritingExactModeIsJustTheQuery verifies that with relaxation
// disabled, rewriting evaluation degenerates to plain exact evaluation.
func TestRewritingExactModeIsJustTheQuery(t *testing.T) {
	ix, q, s := env(t, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	res, truncated := TopKByRewriting(ix, q, relax.None, s, 5, 0)
	if truncated || len(res) != 1 {
		t.Fatalf("exact rewriting = %v (truncated=%v)", res, truncated)
	}
}
