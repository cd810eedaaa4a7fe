// Package score implements the paper's XML scoring framework (Section 4):
// a conservative extension of tf*idf from keyword queries to XPath tree
// patterns. A query decomposes into component predicates p(q0, qi)
// linking the returned node q0 to every other query node qi; each
// predicate has an idf (how selective it is across the database,
// Definition 4.2) and, per candidate answer, a tf (in how many ways the
// answer satisfies it, Definition 4.3). The score of an answer is
// Σ idf·tf (Definition 4.4).
//
// The engine consumes scores through the Scorer interface so the tf*idf
// scorer, the paper's sparse/dense normalizations, and fully synthetic
// score tables (used by the Figure 3 reproduction and by randomized
// experiments) are interchangeable.
package score

// Variant says how a binding satisfies its component predicate.
type Variant int

const (
	// Exact: the unrelaxed predicate holds.
	Exact Variant = iota
	// Relaxed: only a relaxed form of the predicate holds.
	Relaxed
	// Missing: the query node is unmatched (leaf deletion); always
	// contributes zero.
	Missing
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case Exact:
		return "exact"
	case Relaxed:
		return "relaxed"
	case Missing:
		return "missing"
	default:
		return "variant(?)"
	}
}

// Scorer assigns per-binding score contributions. Implementations must be
// safe for concurrent use (Whirlpool-M calls them from server goroutines)
// and contributions must be non-negative — the engine's pruning bound
// relies on scores growing monotonically.
type Scorer interface {
	// Contribution returns the score added when query node nodeID is
	// bound to the document node with preorder ordinal ord under the
	// given variant. ord is -1 iff v == Missing.
	Contribution(nodeID int, v Variant, ord int32) float64
	// MaxContribution returns an upper bound on Contribution over every
	// possible binding of nodeID; it feeds the maximum-possible-final
	// score used for pruning and queue priorities.
	MaxContribution(nodeID int) float64
	// MinContribution returns a lower bound over non-missing bindings;
	// routing estimates use the [min, max] contribution range.
	MinContribution(nodeID int) float64
	// ExpectedContribution returns the anticipated contribution of a
	// typical binding, used by the score-based routing strategies
	// (max_score / min_score, Section 6.1.4).
	ExpectedContribution(nodeID int) float64
}

// RelaxedBounder is a Scorer that also bounds its Relaxed contributions
// from above. A server whose postings below a root all sit at a
// non-exact depth can add at most this bound to the root's answers, so
// the engine's root cursor lowers such a root's bound by the
// difference from MaxContribution. It tests a node's depths only where
// that difference is positive; for a Scorer without the bound it lowers
// nothing, and tests depths on exact runs alone.
type RelaxedBounder interface {
	// MaxRelaxedContribution returns an upper bound on
	// Contribution(nodeID, Relaxed, ord) over every ord.
	MaxRelaxedContribution(nodeID int) float64
}
