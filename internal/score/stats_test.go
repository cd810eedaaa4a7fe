package score_test

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/synopsis"
	"repro/internal/xmark"
)

// TestTFIDFWithSynopsisStats checks that a scorer built from synopsis
// statistics is bit-identical — every idf, scale and contribution — to
// one built with per-root index scans, on single and sharded sources,
// including queries with content predicates (which fall back to
// scanning per node).
// Scores compare exactly: synopsis-fed scorers must be bit-identical to scan-built ones.
func TestTFIDFWithSynopsisStats(t *testing.T) {
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"/site[.//item]",
		"//item[./mailbox//text and ./name]",
		"//item[./name = 'no-such-name' and .//text]",
	}
	for _, items := range []int{60, 250} {
		doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: items})
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]index.Source{"single": index.Build(doc)}
		for _, p := range []int{2, 8} {
			c, err := shard.Split(doc, p)
			if err != nil {
				t.Fatal(err)
			}
			sources[fmt.Sprintf("shards-%d", p)] = c
		}
		syn := synopsis.Build(doc)
		for srcName, src := range sources {
			for _, qs := range queries {
				for _, norm := range []score.Normalization{score.Raw, score.Sparse, score.Dense} {
					t.Run(fmt.Sprintf("items=%d/%s/%s/%v", items, srcName, qs, norm), func(t *testing.T) {
						q := pattern.MustParse(qs)
						want := score.NewTFIDF(src, q, norm)
						got := score.NewTFIDFFromStats(score.CollectStats(src, syn, q), norm)
						for id := 0; id < q.Size(); id++ {
							we, wr := want.IDF(id)
							ge, gr := got.IDF(id)
							if we != ge || wr != gr {
								t.Fatalf("node %d idf: synopsis (%v, %v), scan (%v, %v)", id, ge, gr, we, wr)
							}
							for _, v := range []score.Variant{score.Exact, score.Relaxed} {
								if want.Contribution(id, v, 0) != got.Contribution(id, v, 0) {
									t.Fatalf("node %d %v contribution differs", id, v)
								}
							}
							if want.MaxContribution(id) != got.MaxContribution(id) ||
								want.MinContribution(id) != got.MinContribution(id) ||
								want.ExpectedContribution(id) != got.ExpectedContribution(id) {
								t.Fatalf("node %d contribution bounds differ", id)
							}
						}
					})
				}
			}
		}
	}
}
