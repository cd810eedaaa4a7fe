package dewey

// Axis identifies an XPath structural axis between two nodes. The paper's
// tree patterns use pc (parent-child) and ad (ancestor-descendant) edges;
// Self is the composition of an empty path.
type Axis int

const (
	// Self relates a node to itself.
	Self Axis = iota
	// Child relates a parent to its direct child (pc edge).
	Child
	// Descendant relates an ancestor to any strict descendant (ad edge).
	Descendant
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
	default:
		return "axis(?)"
	}
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
