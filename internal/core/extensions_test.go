package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/relax"
	"repro/internal/score"
)

// TestServerWorkersAgree verifies the multi-worker-per-server extension
// (the paper's future-work item) produces the same answers as the
// baseline, on random inputs.
func TestServerWorkersAgree(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		r := rand.New(rand.NewSource(int64(3000 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		s := score.NewTFIDF(ix, q, score.Sparse)
		var base []float64
		for _, workers := range []int{1, 2, 4} {
			eng, err := New(ix, q, Config{
				K: 3, Relax: relax.All, Algorithm: WhirlpoolM,
				Routing: RoutingMinAlive, Scorer: s, ServerWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := scoresOf(res)
			if base == nil {
				base = got
				continue
			}
			if !almostEqual(got, base) {
				t.Fatalf("trial %d workers=%d: %v vs %v", trial, workers, got, base)
			}
		}
	}
}

// TestRouterBatchAgree verifies bulk routing (the paper's "adaptivity in
// bulk" future-work item) preserves answers for both algorithms.
func TestRouterBatchAgree(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		r := rand.New(rand.NewSource(int64(4000 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM} {
			var base []float64
			for _, batch := range []int{1, 4, 16} {
				eng, err := New(ix, q, Config{
					K: 3, Relax: relax.All, Algorithm: alg,
					Routing: RoutingMinAlive, Scorer: s, RouterBatch: batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := scoresOf(res)
				if base == nil {
					base = got
					continue
				}
				if !almostEqual(got, base) {
					t.Fatalf("trial %d %v batch=%d: %v vs %v", trial, alg, batch, got, base)
				}
			}
		}
	}
}

// TestRouterBatchReducesRoutingWithoutChangingAnswers sanity-checks that
// batching still terminates and prunes on a workload with contention.
func TestRouterBatchStress(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	for _, batch := range []int{2, 8} {
		res := runWith(t, ix, q, Config{
			K: 1, Relax: relax.All, Algorithm: WhirlpoolS,
			Routing: RoutingMinAlive, Scorer: s, RouterBatch: batch,
		})
		if len(res.Answers) != 1 {
			t.Fatalf("batch=%d: answers = %d", batch, len(res.Answers))
		}
	}
}

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
