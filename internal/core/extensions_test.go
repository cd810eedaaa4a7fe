package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/relax"
	"repro/internal/score"
)

// TestWrongStatisticsOnlySteerRouting verifies that routing statistics
// only steer: a plan whose Fanout/SatisfyProb were doctored to wildly
// wrong values never changes the answers.
func TestWrongStatisticsOnlySteerRouting(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(5000 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		stats := score.CollectStats(ix, nil, q)
		s := score.NewTFIDFFromStats(stats, score.Sparse)
		cfg := Config{K: 3, Relax: relax.All, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s}
		base, err := New(ix, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, wrong := range []struct{ fanout, prob float64 }{{1, 0.1}, {50.5, 0.99}} {
			plan, err := CompilePlan(stats, q, relax.All, s, "doctored")
			if err != nil {
				t.Fatal(err)
			}
			for id := 1; id < q.Size(); id++ {
				plan.Fanout[id], plan.SatisfyProb[id] = wrong.fanout, wrong.prob
			}
			cfg.Plan = plan
			eng, err := New(ix, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(scoresOf(got), scoresOf(want)) {
				t.Fatalf("trial %d: doctored statistics changed answers: %v vs %v", trial, scoresOf(got), scoresOf(want))
			}
		}
	}
}
