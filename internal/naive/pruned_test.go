package naive

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/xmark"
)

// TestPrunedRewritingMatchesUnpruned is the admissibility property test
// for idf-bounded relaxation pruning: across document sizes, shard
// counts, relaxation modes and k, the pruned closure evaluation must
// return exactly the same roots with exactly the same scores as the
// unpruned one. It also checks the pruning is not vacuous — some
// configuration must actually skip queries.
// Scores compare exactly: pruning must not change any answer score bit.
func TestPrunedRewritingMatchesUnpruned(t *testing.T) {
	queries := []string{
		"//item[./description/parlist]",
		"//item[./mailbox/mail/text and ./name]",
		"/site[.//item]",
		"//item[./description/parlist and ./mailbox/mail]",
	}
	totalPruned := 0
	for _, sz := range []struct {
		name  string
		items int
	}{{"S", 40}, {"M", 150}} {
		doc, err := xmark.Generate(xmark.Options{Seed: 7, Items: sz.items})
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]index.Source{"p=1": index.Build(doc)}
		for _, p := range []int{2, 8} {
			c, err := shard.Split(doc, p)
			if err != nil {
				t.Fatal(err)
			}
			sources[fmt.Sprintf("p=%d", p)] = c
		}
		for srcName, src := range sources {
			for _, qs := range queries {
				for _, r := range []relax.Relaxation{relax.None, relax.All} {
					for _, k := range []int{1, 5} {
						t.Run(fmt.Sprintf("%s/%s/%s/relax=%v/k=%d", sz.name, srcName, qs, r, k), func(t *testing.T) {
							q := pattern.MustParse(qs)
							s := score.NewTFIDF(src, q, score.Sparse)
							want, wantTrunc := TopKByRewriting(src, q, r, s, k, 0)
							got, pruned, gotTrunc := TopKByRewritingPruned(src, q, r, s, k, 0)
							totalPruned += pruned
							if wantTrunc != gotTrunc {
								t.Fatalf("truncated %v vs %v", gotTrunc, wantTrunc)
							}
							if len(want) != len(got) {
								t.Fatalf("%d answers vs unpruned %d", len(got), len(want))
							}
							for i := range want {
								if want[i].Root != got[i].Root {
									t.Fatalf("answer %d: root %v vs unpruned %v", i, got[i].Root, want[i].Root)
								}
								if want[i].Score != got[i].Score {
									t.Fatalf("answer %d: score %v vs unpruned %v", i, got[i].Score, want[i].Score)
								}
							}
						})
					}
				}
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("pruning never fired across any configuration; the property test is vacuous")
	}
}
