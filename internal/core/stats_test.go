package core

import (
	"testing"

	"repro/internal/relax"
	"repro/internal/score"
)

// TestLockStepHonorsConfiguredOrder verifies the LockStep phase order
// follows Config.Order.
func TestLockStepHonorsConfiguredOrder(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	// Different orders must process different op counts on this skewed
	// workload, while answers agree.
	var ops []int64
	var base []float64
	for _, order := range q.ServerOrders()[:6] {
		res := runWith(t, ix, q, Config{
			K: 1, Relax: relax.All, Algorithm: LockStep, Order: order, Scorer: s,
		})
		ops = append(ops, res.Stats.ServerOps)
		if base == nil {
			base = scoresOf(res)
		} else if !almostEqual(base, scoresOf(res)) {
			t.Fatalf("order %v changed answers", order)
		}
	}
	same := true
	for _, o := range ops {
		if o != ops[0] {
			same = false
		}
	}
	if same {
		t.Log("all sampled orders cost the same (acceptable on tiny data)")
	}
}

// TestStatsRelationships checks internal consistency of the
// instrumentation counters.
func TestStatsRelationships(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		res := runWith(t, ix, q, Config{K: 2, Relax: relax.All, Algorithm: alg, Scorer: s})
		st := res.Stats
		// Every server op processes one match; every processed match was
		// created; created ≥ ops is not guaranteed the other way, but
		// matches created must be at least the answers returned.
		if st.MatchesCreated < int64(len(res.Answers)) {
			t.Fatalf("%v: created %d < answers %d", alg, st.MatchesCreated, len(res.Answers))
		}
		if st.ServerOps <= 0 || st.JoinComparisons <= 0 {
			t.Fatalf("%v: empty counters %+v", alg, st)
		}
		if alg == LockStepNoPrune && st.Pruned != 0 {
			t.Fatalf("NoPrune pruned %d", st.Pruned)
		}
	}
}

// TestSeededThresholdRespectedByAllAlgorithms drives every algorithm
// with a floor that admits only the best match.
func TestSeededThresholdRespectedByAllAlgorithms(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep} {
		res := runExperiment(t, ix, q, Config{
			K: 4, Relax: relax.All, Algorithm: alg, Scorer: s,
		}, Experiment{Threshold: 4.5})
		// Only book 1 reaches a score above 4.5 (it scores 5.0); other
		// partial matches are pruned but their roots may retain lower
		// offered scores. The winner must still be found.
		if len(res.Answers) == 0 || res.Answers[0].Score < 4.5 {
			t.Fatalf("%v: answers = %v", alg, scoresOf(res))
		}
	}
}
