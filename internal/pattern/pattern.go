// Package pattern implements the paper's query model: tree patterns, an
// expressive subset of XPath (Section 2). A tree pattern is a rooted tree
// whose nodes are labeled with element tags (leaves optionally with
// values), whose edges are XPath axes (pc for parent-child, ad for
// ancestor-descendant), and whose root is the returned node.
//
// Patterns are built either programmatically or by parsing the XPath
// subset the paper uses, e.g.
//
//	/book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']
//	//item[./description/parlist and ./mailbox/mail/text]
package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dewey"
)

// Node is one node of a tree pattern. Node 0 of a Query is the root — the
// returned query node (q0 in the paper's notation).
type Node struct {
	// ID is the node's index within Query.Nodes.
	ID int
	// Tag is the element tag the node must match.
	Tag string
	// Value, when non-empty, constrains the matched element's text value
	// (the paper's content predicates, e.g. title='wodehouse'). ValueOp
	// selects the comparison: "" or "=" mean equality; "!=", "<", "<=",
	// ">", ">=" and "contains" extend the paper's equality-only
	// predicates.
	Value string
	// ValueOp is the content-predicate operator; empty means equality
	// when Value is set.
	ValueOp string
	// Axis relates this node to its pattern parent: Child (pc) or
	// Descendant (ad). For the root, Axis relates it to the (virtual)
	// document root: Child for /book, Descendant for //item.
	Axis dewey.Axis
	// Parent is the pattern-parent's ID, or -1 for the root.
	Parent int
	// Children lists pattern-children IDs in declaration order.
	Children []int
}

// Query is a tree pattern. Nodes[0] is the returned node.
type Query struct {
	Nodes []*Node
}

// New returns a query containing only a root node with the given tag,
// related to the virtual document root by axis (Child for "/tag",
// Descendant for "//tag").
func New(tag string, axis dewey.Axis) *Query {
	return &Query{Nodes: []*Node{{ID: 0, Tag: tag, Axis: axis, Parent: -1}}}
}

// Add appends a node with the given tag under parentID via axis and
// returns its ID.
func (q *Query) Add(parentID int, tag string, axis dewey.Axis) int {
	id := len(q.Nodes)
	n := &Node{ID: id, Tag: tag, Axis: axis, Parent: parentID}
	q.Nodes = append(q.Nodes, n)
	q.Nodes[parentID].Children = append(q.Nodes[parentID].Children, id)
	return id
}

// AddValueOp appends a leaf node with an arbitrary content predicate
// (op ∈ =, !=, <, <=, >, >=, contains) and returns its ID.
func (q *Query) AddValueOp(parentID int, tag string, axis dewey.Axis, op, value string) int {
	id := q.Add(parentID, tag, axis)
	q.Nodes[id].Value = value
	q.Nodes[id].ValueOp = op
	return id
}

// Root returns the returned node (q0).
func (q *Query) Root() *Node { return q.Nodes[0] }

// Size returns the number of query nodes.
func (q *Query) Size() int { return len(q.Nodes) }

// IsDescendant reports whether node a is a strict descendant of node b in
// the pattern tree (Algorithm 1's isDescendant(a, b)).
func (q *Query) IsDescendant(a, b int) bool {
	for cur := q.Nodes[a].Parent; cur != -1; cur = q.Nodes[cur].Parent {
		if cur == b {
			return true
		}
	}
	return false
}

// PathToRoot returns the node IDs from id up to (and including) the root.
func (q *Query) PathToRoot(id int) []int {
	var path []int
	for cur := id; cur != -1; cur = q.Nodes[cur].Parent {
		path = append(path, cur)
	}
	return path
}

// AxisBetween composes the edge axes along the pattern path from ancestor
// anc down to descendant desc (Algorithm 1's getComposition). It panics
// if desc is not in anc's subtree; callers establish that with
// IsDescendant. A single pc edge composes to Child; anything longer or
// involving an ad edge composes to Descendant.
func (q *Query) AxisBetween(anc, desc int) dewey.Axis {
	if anc == desc {
		return dewey.Self
	}
	axis := dewey.Self
	cur := desc
	for cur != anc {
		n := q.Nodes[cur]
		if n.Parent == -1 {
			panic(fmt.Sprintf("pattern: node %d is not a descendant of %d", desc, anc))
		}
		axis = dewey.Compose(n.Axis, axis)
		cur = n.Parent
	}
	return axis
}

// Validate checks structural well-formedness: a single root at index 0,
// consistent parent/child links, non-empty tags, supported axes.
func (q *Query) Validate() error {
	if len(q.Nodes) == 0 {
		return fmt.Errorf("pattern: empty query")
	}
	for i, n := range q.Nodes {
		if n == nil {
			return fmt.Errorf("pattern: nil node %d", i)
		}
		if n.ID != i {
			return fmt.Errorf("pattern: node %d has ID %d", i, n.ID)
		}
		if n.Tag == "" {
			return fmt.Errorf("pattern: node %d has empty tag", i)
		}
		if i == 0 {
			if n.Parent != -1 {
				return fmt.Errorf("pattern: root must have parent -1")
			}
		} else {
			if n.Parent < 0 || n.Parent >= len(q.Nodes) {
				return fmt.Errorf("pattern: node %d has bad parent %d", i, n.Parent)
			}
			if n.Parent >= i {
				return fmt.Errorf("pattern: node %d declared before its parent %d", i, n.Parent)
			}
			found := false
			for _, c := range q.Nodes[n.Parent].Children {
				if c == i {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("pattern: node %d missing from parent %d child list", i, n.Parent)
			}
		}
		switch n.Axis {
		case dewey.Child, dewey.Descendant:
		default:
			return fmt.Errorf("pattern: node %d has unsupported axis %v", i, n.Axis)
		}
		switch n.ValueOp {
		case "", "=", "!=", "contains":
		case "<", "<=", ">", ">=":
			if _, err := strconv.ParseFloat(n.Value, 64); err != nil {
				return fmt.Errorf("pattern: node %d compares %q with non-numeric %q", i, n.ValueOp, n.Value)
			}
		default:
			return fmt.Errorf("pattern: node %d has unsupported value operator %q", i, n.ValueOp)
		}
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Nodes: make([]*Node, len(q.Nodes))}
	for i, n := range q.Nodes {
		cp := *n
		cp.Children = append([]int(nil), n.Children...)
		out.Nodes[i] = &cp
	}
	return out
}

// String renders the pattern in the XPath subset accepted by Parse.
func (q *Query) String() string {
	var b strings.Builder
	root := q.Root()
	if root.Axis == dewey.Descendant {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	b.WriteString(root.Tag)
	q.writePredicates(&b, root)
	return b.String()
}

func (q *Query) writePredicates(b *strings.Builder, n *Node) {
	if len(n.Children) == 0 {
		return
	}
	b.WriteString("[")
	for i, cid := range n.Children {
		if i > 0 {
			b.WriteString(" and ")
		}
		q.writeStep(b, q.Nodes[cid])
	}
	b.WriteString("]")
}

func (q *Query) writeStep(b *strings.Builder, n *Node) {
	switch n.Axis {
	case dewey.Child:
		b.WriteString("./")
	case dewey.Descendant:
		b.WriteString(".//")
	}
	b.WriteString(n.Tag)
	q.writePredicates(b, n)
	if n.Value == "" && n.ValueOp == "" {
		return
	}
	op := n.ValueOp
	if op == "" {
		op = "="
	}
	switch op {
	case "<", "<=", ">", ">=":
		b.WriteString(" " + op + " " + n.Value)
	case "contains":
		b.WriteString(" contains '" + n.Value + "'")
	default:
		b.WriteString(" " + op + " '" + n.Value + "'")
	}
}

// ServerOrders returns every permutation of the non-root node IDs — the
// static routing orders of Section 6.3.2 (120 permutations for the paper's
// default 6-node query Q2). The root is always evaluated first and is not
// part of the orders.
func (q *Query) ServerOrders() [][]int {
	ids := make([]int, 0, len(q.Nodes)-1)
	for i := 1; i < len(q.Nodes); i++ {
		ids = append(ids, i)
	}
	var out [][]int
	var permute func(k int)
	permute = func(k int) {
		if k == len(ids) {
			out = append(out, append([]int(nil), ids...))
			return
		}
		for i := k; i < len(ids); i++ {
			ids[k], ids[i] = ids[i], ids[k]
			permute(k + 1)
			ids[k], ids[i] = ids[i], ids[k]
		}
	}
	permute(0)
	return out
}
