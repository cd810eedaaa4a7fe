package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/synopsis"
	"repro/internal/xmark"
)

// TestEngineFromPlanMatchesScratch builds every engine twice — once the
// ordinary way and once from a compiled plan backed by a synopsis — and
// checks the routing statistics are bit-identical and the answers (roots
// and scores) agree exactly, across relaxation modes and algorithms.
// Scores compare exactly: plan-built engines must reproduce scratch scores bit-for-bit.
func TestEngineFromPlanMatchesScratch(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 3, Items: 80})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	syn := synopsis.Build(doc)
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./name = 'no-such-name' and .//text]",
	}
	for _, qs := range queries {
		for _, r := range []relax.Relaxation{relax.None, relax.All} {
			for _, alg := range []Algorithm{WhirlpoolS, LockStep} {
				t.Run(fmt.Sprintf("%s/relax=%v/%v", qs, r, alg), func(t *testing.T) {
					q := pattern.MustParse(qs)
					stats := score.CollectStats(ix, syn, q)
					s := score.NewTFIDFFromStats(stats, score.Sparse)
					plan, err := CompilePlan(stats, q, r, s, "test-key")
					if err != nil {
						t.Fatal(err)
					}
					if len(plan.Order) != q.Size()-1 {
						t.Fatalf("plan order has %d entries, want %d", len(plan.Order), q.Size()-1)
					}
					cfg := Config{K: 5, Relax: r, Algorithm: alg, Scorer: s}
					scratch, err := New(ix, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Plan = plan
					planned, err := New(ix, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for id := 1; id < q.Size(); id++ {
						if scratch.fanout[id] != planned.fanout[id] || scratch.satisfyProb[id] != planned.satisfyProb[id] {
							t.Fatalf("node %d stats: plan (%v, %v), scratch (%v, %v)",
								id, planned.fanout[id], planned.satisfyProb[id], scratch.fanout[id], scratch.satisfyProb[id])
						}
					}
					for i, id := range plan.Order {
						if planned.order[i] != id {
							t.Fatalf("engine order %v ignores plan order %v", planned.order, plan.Order)
						}
					}
					want, err := scratch.Run()
					if err != nil {
						t.Fatal(err)
					}
					got, err := planned.Run()
					if err != nil {
						t.Fatal(err)
					}
					if len(want.Answers) != len(got.Answers) {
						t.Fatalf("%d answers from plan, %d from scratch", len(got.Answers), len(want.Answers))
					}
					for i := range want.Answers {
						if want.Answers[i].Root != got.Answers[i].Root || want.Answers[i].Score != got.Answers[i].Score {
							t.Fatalf("answer %d: plan (%v, %v), scratch (%v, %v)", i,
								got.Answers[i].Root, got.Answers[i].Score, want.Answers[i].Root, want.Answers[i].Score)
						}
					}
				})
			}
		}
	}
}

// TestPlanMismatchesRejected checks New refuses a plan compiled for a
// different relaxation mode or a different query.
func TestPlanMismatchesRejected(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 3, Items: 20})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse("//item[./name]")
	stats := score.CollectStats(ix, nil, q)
	s := score.NewTFIDFFromStats(stats, score.Sparse)
	plan, err := CompilePlan(stats, q, relax.All, s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ix, q, Config{K: 1, Relax: relax.None, Scorer: s, Plan: plan}); err == nil {
		t.Fatal("relaxation mismatch accepted")
	}
	other := pattern.MustParse("//item[./payment]")
	so := score.NewTFIDF(ix, other, score.Sparse)
	if _, err := New(ix, other, Config{K: 1, Relax: relax.All, Scorer: so, Plan: plan}); err == nil {
		t.Fatal("query mismatch accepted")
	}
}

// TestPlanStatisticsPinned pins Plan.Fanout/SatisfyProb/Order for the
// paper's Q1–Q3 (canonicalized, as the planner compiles them) on XMark
// seed 1 / 200 items to the values recorded before routing statistics
// were folded into the scorer's pass (commit d9cc8dc, where CompilePlan
// probed the index per server): the fold must not move a bit, whether
// the statistics come from the synopsis or from scanning the index.
// Scores compare exactly: routing statistics must be bit-identical to the recorded ones.
func TestPlanStatisticsPinned(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	syn := synopsis.Build(doc)
	q1 := "//item[./description/parlist]"
	q2 := "//item[./description/parlist and ./mailbox/mail/text]"
	q3 := "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]"
	f2 := []float64{0, 1, 2.8674698795180724, 1, 1.9801324503311257, 3.77}
	p2 := []float64{0, 1, 0.415, 1, 0.755, 1}
	f3 := []float64{0, 2.028368794326241, 1, 1.9801324503311257, 3.77, 2.3006134969325154, 2.2280701754385963, 1}
	p3 := []float64{0, 0.705, 1, 0.755, 1, 0.815, 0.855, 1}
	// One valued shape per whirlload cold template, recorded at commit
	// 9dd2266 (statistics from one AppendCandidates probe per root).
	locQty := "//item[./location = 'United States' and ./quantity = '1']"
	locPayKw := "//item[./location = 'United States' and ./payment = 'Creditcard' and .//keyword = 'onyx']"
	qtyMailKw := "//item[./quantity = '1' and ./mailbox/mail/text/keyword = 'onyx']"
	fromTo := "//mail[./from = 'ornate' and ./to = 'crystal']"
	fLPK, pLPK := []float64{0, 1.0526315789473684, 1, 1}, []float64{0, 0.095, 0.125, 0.245}
	fQMK := []float64{0, 1, 1.9801324503311257, 3.77, 1.0526315789473684, 1}
	pQMK := []float64{0, 1, 0.755, 1, 0.095, 0.195}
	fFT, pFT := []float64{0, 1, 1}, []float64{0, 0.056856187290969896, 0.05016722408026756}
	pinned := []struct {
		xpath       string
		r           relax.Relaxation
		fanout      []float64
		satisfyProb []float64
		order       []int
	}{
		{q1, relax.None, f2[:3], p2[:3], []int{1, 2}},
		{q1, relax.All, f2[:3], p2[:3], []int{1, 2}},
		{q2, relax.None, f2, p2, []int{1, 3, 2, 4, 5}},
		{q2, relax.All, f2, p2, []int{1, 3, 4, 2, 5}},
		{q3, relax.None, f3, p3, []int{2, 7, 1, 3, 5, 6, 4}},
		{q3, relax.All, f3, p3, []int{2, 7, 1, 3, 6, 5, 4}},
		{locQty, relax.None, []float64{0, 1, 1}, []float64{0, 0.125, 0.195}, []int{1, 2}},
		{locQty, relax.All, []float64{0, 1, 1}, []float64{0, 0.125, 0.195}, []int{1, 2}},
		{locPayKw, relax.None, fLPK, pLPK, []int{1, 2, 3}},
		{locPayKw, relax.All, fLPK, pLPK, []int{2, 3, 1}},
		{qtyMailKw, relax.None, fQMK, pQMK, []int{4, 5, 1, 2, 3}},
		{qtyMailKw, relax.All, fQMK, pQMK, []int{1, 5, 4, 2, 3}},
		{fromTo, relax.None, fFT, pFT, []int{2, 1}},
		{fromTo, relax.All, fFT, pFT, []int{1, 2}},
	}
	for _, want := range pinned {
		q := pattern.Canonicalize(pattern.MustParse(want.xpath))
		for name, src := range map[string]score.StatsSource{"synopsis": syn, "scan": nil} {
			stats := score.CollectStats(ix, src, q)
			plan, err := CompilePlan(stats, q, want.r, score.NewTFIDFFromStats(stats, score.Sparse), "k")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(plan.Fanout, want.fanout) || !slices.Equal(plan.SatisfyProb, want.satisfyProb) || !slices.Equal(plan.Order, want.order) {
				t.Errorf("%s relax=%v (%s): plan (%v, %v, %v), pinned (%v, %v, %v)", want.xpath, want.r, name,
					plan.Fanout, plan.SatisfyProb, plan.Order, want.fanout, want.satisfyProb, want.order)
			}
		}
	}
}
