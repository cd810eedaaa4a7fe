package core

import (
	"math"
	"testing"
)

// aliveRun builds a bare run around the min_alive_partial_matches cost
// model's inputs for server 1.
func aliveRun(maxC, minC, pSat, fan float64, tk *topkSet) *run {
	return &run{
		Engine: &Engine{
			maxContrib:  []float64{0, maxC},
			minContrib:  []float64{0, minC},
			satisfyProb: []float64{0, pSat},
			fanout:      []float64{0, fan},
		},
		topk: tk,
	}
}

// estimateAlive is estimateAliveAt against the run's current threshold.
func (r *run) estimateAlive(m *match, id int) float64 {
	t, ok := r.topk.threshold()
	return r.estimateAliveAt(m, id, t, ok)
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEstimateAliveNoThreshold(t *testing.T) {
	// Without a threshold nothing can be pruned: every expected
	// extension survives, and so does the null extension.
	r := aliveRun(4, 2, 0.5, 3, newTopkSet(1, 0, false))
	m := mkMatch(0, 0, 1)
	m.maxFinal = 3
	if got := r.estimateAlive(m, 1); !almost(got, 0.5*3+0.5) {
		t.Fatalf("estimateAlive without threshold = %v, want %v", got, 0.5*3+0.5)
	}
}

func TestEstimateAliveNeedAtMostMinC(t *testing.T) {
	// need = t - maxFinal + maxC = 2 - 4.5 + 4 = 1.5 ≤ minC: even the
	// weakest contribution keeps the extension alive (frac = 1). The
	// null extension dies: maxFinal - maxC = 0.5 < t.
	r := aliveRun(4, 2, 0.5, 3, newTopkSet(1, 2, true))
	m := mkMatch(0, 0, 1)
	m.maxFinal = 4.5
	if got := r.estimateAlive(m, 1); !almost(got, 0.5*3) {
		t.Fatalf("estimateAlive need≤minC = %v, want %v", got, 0.5*3)
	}
}

func TestEstimateAliveNeedAboveMaxC(t *testing.T) {
	// need = 2 - 1.5 + 4 = 4.5 > maxC: no contribution can save the
	// extension and the null extension is below threshold too.
	r := aliveRun(4, 2, 0.5, 3, newTopkSet(1, 2, true))
	m := mkMatch(0, 0, 1)
	m.maxFinal = 1.5
	if got := r.estimateAlive(m, 1); got != 0 {
		t.Fatalf("estimateAlive need>maxC = %v, want 0", got)
	}
}

func TestEstimateAliveFraction(t *testing.T) {
	// need = 2 - 3 + 4 = 3 sits mid-range: frac = (4-3)/(4-2) = 0.5.
	r := aliveRun(4, 2, 0.5, 3, newTopkSet(1, 2, true))
	m := mkMatch(0, 0, 1)
	m.maxFinal = 3
	if got := r.estimateAlive(m, 1); !almost(got, 0.5*3*0.5) {
		t.Fatalf("estimateAlive mid-range = %v, want %v", got, 0.5*3*0.5)
	}
}

func TestEstimateAliveDegenerateRange(t *testing.T) {
	// maxC == minC: the contribution range is a point, so frac is all
	// or nothing — no division by a zero-width range.
	r := aliveRun(3, 3, 0.5, 2, newTopkSet(1, 2, true))

	// need = 2 - 6 + 3 = -1 ≤ minC → frac 1; null survives (6-3 ≥ 2).
	m := mkMatch(0, 0, 1)
	m.maxFinal = 6
	if got := r.estimateAlive(m, 1); !almost(got, 0.5*2+0.5) {
		t.Fatalf("degenerate range, need≤minC: %v, want %v", got, 0.5*2+0.5)
	}

	// need = 2 - 1.9 + 3 = 3.1 > maxC → frac 0; null dies.
	m.maxFinal = 1.9
	if got := r.estimateAlive(m, 1); got != 0 {
		t.Fatalf("degenerate range, need>maxC: %v, want 0", got)
	}
}

func TestPrunableTieAtEpsilon(t *testing.T) {
	// Section 5.2.2 bound with tie pruning: maxFinal ≤ t + pruneEps is
	// prunable; anything clearly above the noise band is not.
	const t0 = 1.0
	r := &run{Engine: &Engine{}, topk: newTopkSet(1, t0, true)}

	cases := []struct {
		name     string
		maxFinal float64
		want     bool
	}{
		{"clearly below", t0 - 0.1, true},
		{"exact tie", t0, true},
		{"tie at exactly t+pruneEps", t0 + pruneEps, true},
		{"just above the noise band", t0 + 3*pruneEps, false},
		{"clearly above", t0 + 0.1, false},
	}
	for _, tc := range cases {
		m := mkMatch(0, 0, 1)
		m.maxFinal = tc.maxFinal
		if got := r.prunable(m, unchecked) == belowTopK; got != tc.want {
			t.Errorf("%s: prunable(maxFinal=%v) = %v, want %v",
				tc.name, tc.maxFinal, got, tc.want)
		}
	}
}

func TestPrunableWithoutThreshold(t *testing.T) {
	r := &run{Engine: &Engine{}, topk: newTopkSet(2, 0, false)}
	m := mkMatch(0, 0, 1)
	m.maxFinal = -1
	if r.prunable(m, unchecked) != survives {
		t.Fatal("nothing is prunable before a threshold exists")
	}
}

func (v verdict) String() string {
	return [...]string{"survives", "belowTopK", "dominated", "unchecked"}[v]
}

// TestDominanceTable holds topkEntry.dominance, and prunable through
// it, to the rule case by case: root 5's entry scores 1 with bindings
// (10, 20, −1), and each match of root 5 has at most that score, so it
// never displaces the entry it is offered against.
func TestDominanceTable(t *testing.T) {
	const eScore = 1.0
	// bound builds a match of root 5 over a four-node query: visited
	// lists the non-root nodes visited, and a visited node bound to −1
	// is missing.
	bound := func(maxFinal float64, b [3]int32, visited ...int) *match {
		m := mkBoundMatch(5, 0.5, b[:]...)
		m.maxFinal = maxFinal
		for _, id := range visited {
			m.visited |= 1 << uint(id)
			if m.bindings[id] < 0 {
				m.missing |= 1 << uint(id)
			}
		}
		return m
	}
	cases := []struct {
		name string
		m    *match
		want verdict
	}{
		{"strictly below, earlier bindings", bound(eScore-0.1, [3]int32{7, -1, -1}, 1), dominated},
		{"below by just over pruneEps", bound(eScore-3*pruneEps, [3]int32{7, -1, -1}, 1), dominated},
		{"tie, first difference earlier in m", bound(eScore, [3]int32{10, 15, -1}, 1, 2), survives},
		{"tie, first difference later in m", bound(eScore, [3]int32{10, 25, -1}, 1, 2), dominated},
		{"tie, missing in m where e is bound", bound(eScore, [3]int32{10, -1, -1}, 1, 2), dominated},
		{"tie, bound in m where e is missing", bound(eScore, [3]int32{10, 20, 30}, 1, 2, 3), survives},
		{"tie, unvisited before the first difference", bound(eScore, [3]int32{-1, 25, -1}, 2), survives},
		{"tie, unvisited after agreeing", bound(eScore, [3]int32{10, 20, -1}, 1, 2), survives},
		{"tie, full agreement", bound(eScore, [3]int32{10, 20, -1}, 1, 2, 3), dominated},
		{"tie just below, earlier", bound(eScore-pruneEps/2, [3]int32{10, 15, -1}, 1, 2), survives},
		{"tie just above, later", bound(eScore+pruneEps/2, [3]int32{10, 25, -1}, 1, 2), dominated},
		{"above the noise band, later", bound(eScore+3*pruneEps, [3]int32{10, 25, -1}, 1, 2), survives},
	}
	for _, tc := range cases {
		tk := newTopkSet(2, 0, false) // one entry: no threshold
		e := mkBoundMatch(5, eScore, 10, 20, -1)
		e.visited = 0b1111
		tk.offer(e, 0)
		if got := tk.dominance(tc.m); got != tc.want {
			t.Errorf("%s: dominance = %v, want %v", tc.name, got, tc.want)
		}
		for _, paper := range []bool{false, true} {
			r := &run{Engine: &Engine{x: Experiment{PaperRoots: paper}}, topk: tk}
			want := tc.want
			if paper {
				want = survives // the paper prunes against currentTopK only
			}
			if got := r.prunable(tc.m, unchecked); got != want {
				t.Errorf("%s, paper roots %v: prunable = %v, want %v", tc.name, paper, got, want)
			}
		}
		if got := tk.offer(tc.m, 0); got != tc.want {
			t.Errorf("%s: offer's verdict = %v, want %v", tc.name, got, tc.want)
		}
	}
	tk := newTopkSet(2, 0, false)
	tk.offer(mkBoundMatch(5, eScore, 10, 20, -1), 0)
	m := bound(eScore-0.1, [3]int32{7, -1, -1}, 1)
	m.bindings[0] = 6
	if got := tk.dominance(m); got != survives {
		t.Errorf("no entry for root 6: dominance = %v, want survives", got)
	}
}
