package score

import "math/rand"

// Table is a fully synthetic scorer mapping (query node, document node)
// to a fixed contribution, with an optional exactness discount. It powers
// the paper's motivating example (Figure 3 injects title 3×0.3, location
// {0.3, 0.2, 0.1, 0.1, 0.1}, price 0.2) and any experiment that needs
// hand-placed scores.
type Table struct {
	// contrib[nodeID][docOrd] — missing entries default to Default.
	contrib map[int]map[int]float64
	// Default is the contribution of a binding absent from the table.
	Default float64
	// RelaxedFactor multiplies the tabled value for Relaxed bindings
	// (1.0 treats exact and relaxed alike).
	RelaxedFactor float64

	max, min, sum []float64
	count         []int
	size          int
}

// NewTable creates an empty table for a query with size query nodes.
func NewTable(size int) *Table {
	t := &Table{
		contrib:       make(map[int]map[int]float64),
		RelaxedFactor: 1,
		max:           make([]float64, size),
		min:           make([]float64, size),
		sum:           make([]float64, size),
		count:         make([]int, size),
		size:          size,
	}
	for i := range t.min {
		t.min[i] = 0
	}
	return t
}

// Set assigns the contribution of binding the document node with
// ordinal ord to query node nodeID.
func (t *Table) Set(nodeID int, ord int32, c float64) {
	m := t.contrib[nodeID]
	if m == nil {
		m = make(map[int]float64)
		t.contrib[nodeID] = m
	}
	m[int(ord)] = c
	if c > t.max[nodeID] {
		t.max[nodeID] = c
	}
	if t.count[nodeID] == 0 || c < t.min[nodeID] {
		t.min[nodeID] = c
	}
	t.sum[nodeID] += c
	t.count[nodeID]++
}

// Contribution implements Scorer.
func (t *Table) Contribution(nodeID int, v Variant, ord int32) float64 {
	if v == Missing {
		return 0
	}
	c := t.Default
	if m := t.contrib[nodeID]; m != nil {
		if tc, ok := m[int(ord)]; ok {
			c = tc
		}
	}
	if v == Relaxed {
		c *= t.RelaxedFactor
	}
	return c
}

// MaxContribution implements Scorer.
func (t *Table) MaxContribution(nodeID int) float64 {
	if t.max[nodeID] > t.Default {
		return t.max[nodeID]
	}
	return t.Default
}

// MaxRelaxedContribution implements RelaxedBounder.
func (t *Table) MaxRelaxedContribution(nodeID int) float64 {
	return t.RelaxedFactor * t.MaxContribution(nodeID)
}

// MinContribution implements Scorer. When the table has entries for the
// node, their minimum is used (tabled scores are taken as the universe of
// bindings); otherwise Default.
func (t *Table) MinContribution(nodeID int) float64 {
	m := t.Default
	if t.count[nodeID] > 0 {
		m = t.min[nodeID]
	}
	if t.RelaxedFactor < 1 {
		m *= t.RelaxedFactor
	}
	return m
}

// ExpectedContribution implements Scorer.
func (t *Table) ExpectedContribution(nodeID int) float64 {
	if t.count[nodeID] == 0 {
		return t.Default
	}
	return t.sum[nodeID] / float64(t.count[nodeID])
}

// Random is a deterministic pseudo-random scorer: every (query node,
// document node) pair gets a stable score drawn from either a sparse
// (uniform in [0, 1]) or a dense (clustered around Center ± Spread)
// distribution — the paper's "randomly generated sparse and dense scoring
// functions" (Section 6.2.2). Scores are derived by hashing, so the
// scorer is stateless and safe for concurrent use.
type Random struct {
	// Seed differentiates independent scorers.
	Seed int64
	// Dense selects the clustered distribution.
	Dense bool
	// Center and Spread parameterize the dense distribution; zero values
	// default to 0.5 ± 0.05.
	Center, Spread float64
	// RelaxedFactor multiplies relaxed contributions (default 0.5 at
	// construction).
	RelaxedFactor float64
}

// NewRandomSparse returns a sparse random scorer.
func NewRandomSparse(seed int64) *Random {
	return &Random{Seed: seed, RelaxedFactor: 0.5}
}

// NewRandomDense returns a dense random scorer clustered at 0.5 ± 0.05.
func NewRandomDense(seed int64) *Random {
	return &Random{Seed: seed, Dense: true, Center: 0.5, Spread: 0.05, RelaxedFactor: 0.5}
}

// Contribution implements Scorer.
func (r *Random) Contribution(nodeID int, v Variant, ord int32) float64 {
	if v == Missing {
		return 0
	}
	u := r.uniform(nodeID, int(ord))
	var c float64
	if r.Dense {
		center, spread := r.Center, r.Spread
		if center == 0 && spread == 0 {
			center, spread = 0.5, 0.05
		}
		c = center + (2*u-1)*spread
	} else {
		c = u
	}
	if c < 0 {
		c = 0
	}
	if v == Relaxed {
		c *= r.RelaxedFactor
	}
	return c
}

// uniform hashes (seed, nodeID, ord) to a stable value in [0, 1).
func (r *Random) uniform(nodeID, ord int) float64 {
	h := rand.New(rand.NewSource(r.Seed*1_000_003 + int64(nodeID)*8_191 + int64(ord)))
	return h.Float64()
}

// MaxContribution implements Scorer.
func (r *Random) MaxContribution(nodeID int) float64 {
	if r.Dense {
		center, spread := r.Center, r.Spread
		if center == 0 && spread == 0 {
			center, spread = 0.5, 0.05
		}
		return center + spread
	}
	return 1
}

// MaxRelaxedContribution implements RelaxedBounder.
func (r *Random) MaxRelaxedContribution(nodeID int) float64 {
	return r.RelaxedFactor * r.MaxContribution(nodeID)
}

// MinContribution implements Scorer.
func (r *Random) MinContribution(nodeID int) float64 {
	if r.Dense {
		center, spread := r.Center, r.Spread
		if center == 0 && spread == 0 {
			center, spread = 0.5, 0.05
		}
		m := center - spread
		if m < 0 {
			m = 0
		}
		return m * r.RelaxedFactor
	}
	return 0
}

// ExpectedContribution implements Scorer.
func (r *Random) ExpectedContribution(nodeID int) float64 {
	if r.Dense {
		if r.Center == 0 && r.Spread == 0 {
			return 0.5
		}
		return r.Center
	}
	return 0.5
}
