package core

import (
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Figure 1's heterogeneous bookstore: a forest of book trees, so /book
// queries bind forest roots exactly.
const booksXML = `
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
  <price>10</price>
</book>`

func buildEnv(t *testing.T, xml, xpath string) (*index.Index, *pattern.Query) {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc), pattern.MustParse(xpath)
}

func runWith(t *testing.T, ix *index.Index, q *pattern.Query, cfg Config) *Result {
	t.Helper()
	return runExperiment(t, ix, q, cfg, Experiment{})
}

func runExperiment(t *testing.T, ix *index.Index, q *pattern.Query, cfg Config, x Experiment) *Result {
	t.Helper()
	e, err := NewExperiment(ix, q, cfg, x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func scoresOf(res *Result) []float64 {
	out := make([]float64, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = a.Score
	}
	return out
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestRelaxedRankingOrder(t *testing.T) {
	// Book 1 is the exact match; book 2 satisfies publisher/name only
	// approximately; book 3 has only a nested title; book 4 has neither
	// wodehouse title nor psmith.
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 4, Relax: relax.All, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s})
	if len(res.Answers) != 4 {
		t.Fatalf("answers = %d, want 4", len(res.Answers))
	}
	books := ix.Nodes("book")
	if res.Answers[0].Root != books[0].Ord {
		t.Fatalf("best answer should be the exact match, got %v", res.Answers[0].Root)
	}
	if res.Answers[3].Root != books[3].Ord {
		t.Fatalf("worst answer should be book 4, got %v", res.Answers[3].Root)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Score > res.Answers[i-1].Score {
			t.Fatal("answers must be sorted by descending score")
		}
	}
}

func TestExactModeOnlyExactMatches(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Raw)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		res := runWith(t, ix, q, Config{K: 4, Relax: relax.None, Algorithm: alg, Scorer: s})
		if len(res.Answers) != 1 {
			t.Fatalf("%v: exact answers = %d, want 1 (only book 1)", alg, len(res.Answers))
		}
		if res.Answers[0].Root != ix.Nodes("book")[0].Ord {
			t.Fatalf("%v: wrong exact answer", alg)
		}
		// Every binding must be present in an exact match.
		for id, b := range res.Answers[0].Bindings {
			if b < 0 {
				t.Fatalf("%v: exact match missing binding %d", alg, id)
			}
		}
	}
}

func TestPruningReducesWork(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	pruned := runWith(t, ix, q, Config{K: 1, Relax: relax.All, Algorithm: LockStep, Scorer: s})
	noPrune := runWith(t, ix, q, Config{K: 1, Relax: relax.All, Algorithm: LockStepNoPrune, Scorer: s})
	if pruned.Stats.MatchesCreated > noPrune.Stats.MatchesCreated {
		t.Fatalf("pruning created more matches (%d) than no-pruning (%d)",
			pruned.Stats.MatchesCreated, noPrune.Stats.MatchesCreated)
	}
	if !almostEqual(scoresOf(pruned), scoresOf(noPrune)) {
		t.Fatalf("pruning changed the answer: %v vs %v", scoresOf(pruned), scoresOf(noPrune))
	}
}

func TestDistinctRootsInvariant(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[.//title = 'wodehouse']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 4, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
	seen := make(map[int32]bool)
	for _, a := range res.Answers {
		if seen[a.Root] {
			t.Fatalf("duplicate root %v in answers", a.Root)
		}
		seen[a.Root] = true
	}
}

func TestSeededThresholdPrunesEverything(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	// With an impossible currentTopK floor, every match should be pruned
	// immediately after root generation.
	res := runExperiment(t, ix, q, Config{K: 1, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s}, Experiment{Threshold: 1e9})
	if res.Stats.ServerOps > int64(len(ix.Nodes("book"))) {
		t.Fatalf("expected no post-root server ops, got %d", res.Stats.ServerOps)
	}
	if res.Stats.Pruned == 0 {
		t.Fatal("expected pruning with seeded threshold")
	}
}

func TestConfigValidation(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title]")
	s := score.NewTFIDF(ix, q, score.Raw)
	cases := []Config{
		{K: 0, Scorer: s},                        // bad K
		{K: 1},                                   // missing scorer
		{K: 1, Scorer: s, Order: []int{1, 1}},    // duplicate order
		{K: 1, Scorer: s, Order: []int{2}},       // out of range
		{K: 1, Scorer: s, Order: []int{1, 2, 3}}, // wrong length
	}
	for i, cfg := range cases {
		if _, err := New(ix, q, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(ix, q, Config{K: 1, Scorer: s, Order: []int{1}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSingleNodeQuery(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book")
	s := score.NewTFIDF(ix, q, score.Raw)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		res := runWith(t, ix, q, Config{K: 2, Relax: relax.All, Algorithm: alg, Scorer: s})
		if len(res.Answers) != 2 {
			t.Fatalf("%v: answers = %d, want 2", alg, len(res.Answers))
		}
	}
}

func TestNoMatchesAtAll(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/magazine[./title]")
	s := score.NewTFIDF(ix, q, score.Raw)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		res := runWith(t, ix, q, Config{K: 3, Relax: relax.All, Algorithm: alg, Scorer: s})
		if len(res.Answers) != 0 {
			t.Fatalf("%v: expected no answers, got %d", alg, len(res.Answers))
		}
	}
}

func TestKLargerThanAnswerSet(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title]")
	s := score.NewTFIDF(ix, q, score.Raw)
	res := runWith(t, ix, q, Config{K: 100, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 4 {
		t.Fatalf("answers = %d, want all 4 books", len(res.Answers))
	}
}

func TestStatsPopulated(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 1, Relax: relax.All, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s})
	st := res.Stats
	if st.ServerOps == 0 || st.JoinComparisons == 0 || st.MatchesCreated == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestEnumNames(t *testing.T) {
	if WhirlpoolS.String() != "Whirlpool-S" || WhirlpoolM.String() != "Whirlpool-M" ||
		LockStep.String() != "LockStep" || LockStepNoPrune.String() != "LockStep-NoPrun" {
		t.Fatal("algorithm names")
	}
	if Algorithm(9).String() != "algorithm(?)" {
		t.Fatal("unknown algorithm name")
	}
	if RoutingStatic.String() != "static" || RoutingMinAlive.String() != "min_alive_partial_matches" ||
		RoutingMaxScore.String() != "max_score" || RoutingMinScore.String() != "min_score" {
		t.Fatal("routing names")
	}
	if Routing(9).String() != "routing(?)" {
		t.Fatal("unknown routing name")
	}
	if QueueMaxFinal.String() != "max-possible-final" || QueueFIFO.String() != "fifo" ||
		QueueCurrentScore.String() != "current-score" || QueueMaxNext.String() != "max-possible-next" {
		t.Fatal("queue names")
	}
	if Queue(9).String() != "queue(?)" {
		t.Fatal("unknown queue name")
	}
}
