package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/relax"
	"repro/internal/score"
)

// TestPropTopkSetMatchesSort drives the top-k set with random offer
// sequences and checks it against a straightforward sort of the best
// score per root.
// Scores compare exactly: the model and the set must agree bit-for-bit for determinism.
func TestPropTopkSetMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw uint8, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw)%5 + 1
		n := int(nRaw)%40 + 1
		tk := newTopkSet(k, 0, false)
		best := make(map[int]float64)
		for i := 0; i < n; i++ {
			rootOrd := r.Intn(8)
			sc := float64(r.Intn(100)) / 10
			m := &match{
				bindings: []int32{int32(rootOrd)},
				visited:  1,
				score:    sc,
				maxFinal: sc,
				seq:      int64(i),
			}
			tk.offer(m, 0)
			if cur, ok := best[rootOrd]; !ok || sc > cur {
				best[rootOrd] = sc
			}
		}
		// Expected top-k scores.
		var want []float64
		for _, sc := range best {
			want = append(want, sc)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > k {
			want = want[:k]
		}
		got := tk.answers()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Score != want[i] {
				return false
			}
		}
		// Threshold invariant: defined iff k roots known; equals the
		// k-th best.
		th, ok := tk.threshold()
		if ok != (len(best) >= k) {
			return false
		}
		if ok && th != want[len(want)-1] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMaxFinalIsAdmissible checks on random engine runs that no
// final answer score ever exceeds what the match's maxFinal promised at
// any point — indirectly, that offered scores never exceed maxFinal.
func TestPropMaxFinalIsAdmissible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		s := score.NewTFIDF(ix, q, score.Sparse)
		eng, err := New(ix, q, Config{K: 3, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s})
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		// Every answer's score must be bounded by the sum of max
		// contributions (the loosest maxFinal).
		bound := s.MaxContribution(0)
		for id := 1; id < q.Size(); id++ {
			bound += s.MaxContribution(id)
		}
		for _, a := range res.Answers {
			if a.Score > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
