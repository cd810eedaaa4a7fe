package dewey

// Axis identifies an XPath structural axis between two nodes. The paper's
// tree patterns use pc (parent-child) and ad (ancestor-descendant) edges;
// Self and FollowingSibling round out the predicates needed by the query
// decomposition in Section 4 (e.g. following-sibling::e).
type Axis int

const (
	// Self relates a node to itself.
	Self Axis = iota
	// Child relates a parent to its direct child (pc edge).
	Child
	// Descendant relates an ancestor to any strict descendant (ad edge).
	Descendant
	// FollowingSibling relates a node to a later sibling.
	FollowingSibling
)

// String returns the conventional short name of the axis.
func (a Axis) String() string {
	switch a {
	case Self:
		return "self"
	case Child:
		return "pc"
	case Descendant:
		return "ad"
	case FollowingSibling:
		return "following-sibling"
	default:
		return "axis(?)"
	}
}

// Relax returns the relaxed form of the axis under edge generalization:
// Child relaxes to Descendant; every other axis relaxes to itself.
func (a Axis) Relax() Axis {
	if a == Child {
		return Descendant
	}
	return a
}

// Compose returns the composition of two downward axes along a path, as
// used by Algorithm 1 to derive the predicate between a server node and
// the query root: pc∘pc is "grandchild" which this model conservatively
// widens to Descendant; any composition involving Descendant is
// Descendant; composing with Self is the identity.
func Compose(a, b Axis) Axis {
	if a == Self {
		return b
	}
	if b == Self {
		return a
	}
	return Descendant
}
