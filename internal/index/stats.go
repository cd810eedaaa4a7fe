package index

// PredicateStats summarizes how one XPath component predicate
// p(q0, qi) — "a q0 node has a qi node (optionally with a value) on axis
// a" — behaves across the database. It feeds Definition 4.2's idf
// (Satisfying), Definition 4.3's tf bounds (MaxTF), and the size-based
// routing estimates of Section 6.1.4 (TotalPairs / Satisfying ≈ fanout).
type PredicateStats struct {
	// RootCount is |{n : tag(n) = q0}| — Definition 4.2's numerator.
	RootCount int
	// Satisfying is the number of q0 nodes with at least one qi node on
	// the axis — Definition 4.2's denominator.
	Satisfying int
	// TotalPairs is the total number of (q0, qi) pairs related by the
	// axis, i.e. Σ over q0 nodes of tf.
	TotalPairs int
	// MaxTF is the largest tf any single q0 node attains.
	MaxTF int
}

// Selectivity returns Satisfying / RootCount in [0, 1]; 0 when the
// database has no q0 nodes.
func (s PredicateStats) Selectivity() float64 {
	if s.RootCount == 0 {
		return 0
	}
	return float64(s.Satisfying) / float64(s.RootCount)
}

// MeanFanout returns the average number of qi extensions per *satisfying*
// q0 node (≥ 1 when Satisfying > 0), the expected join fanout used by the
// min_alive_partial_matches router.
func (s PredicateStats) MeanFanout() float64 {
	if s.Satisfying == 0 {
		return 0
	}
	return float64(s.TotalPairs) / float64(s.Satisfying)
}
