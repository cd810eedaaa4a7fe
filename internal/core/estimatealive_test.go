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
		if got := r.prunable(m); got != tc.want {
			t.Errorf("%s: prunable(maxFinal=%v) = %v, want %v",
				tc.name, tc.maxFinal, got, tc.want)
		}
	}
}

func TestPrunableWithoutThreshold(t *testing.T) {
	r := &run{Engine: &Engine{}, topk: newTopkSet(2, 0, false)}
	m := mkMatch(0, 0, 1)
	m.maxFinal = -1
	if r.prunable(m) {
		t.Fatal("nothing is prunable before a threshold exists")
	}
}
