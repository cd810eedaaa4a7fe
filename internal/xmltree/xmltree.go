// Package xmltree implements the paper's XML data model: information is a
// forest of node-labeled trees (Section 2). Every element node carries its
// tag, an optional text value (the concatenated character data directly
// under it), its preorder interval, its level and its position among its
// parent's children, and pointers to its parent and children. A node's
// Dewey identifier is not stored: ID derives it on demand from the
// positions on the path down from the node's tree root.
//
// A document is made one way: a column writer appends it to Columns in
// preorder. Parse drives the writer with a strict byte scanner over the
// whole input, ParseProjected over a window of it, keeping only the
// nodes a query can touch, and Builder by hand. Attributes are modeled
// as child nodes tagged "@name" so structural predicates treat them
// uniformly (the paper's queries do not use attributes, but XMark
// documents carry them). The columns are the document the index, the
// engine and the snapshot store read; Columns.Build makes the node slab,
// the only Document there is, for callers that walk nodes, and
// Serialize writes a document back as XML.
package xmltree

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/dewey"
)

// Node is one node of a node-labeled XML tree. Structural tests need no
// Dewey components: a node's descendants are exactly the ordinals in
// (Ord, End] — the region numbering that stands beside Dewey in the XML
// indexing literature — and its level is a field. The four int32s and the
// 8-byte ID keep a Node at 88 bytes.
type Node struct {
	// Tag is the element name (or "@name" for an attribute node).
	Tag string
	// Value is the trimmed character data directly under the element.
	// Empty for pure-structure nodes.
	Value string
	// ID is the node's Dewey identifier within its tree, derived on
	// demand. Roots of the forest get IDs [i] under a virtual forest
	// root, so IDs are unique document-wide. Answers render it; the
	// engine never reads it.
	ID ID
	// Ord is the node's preorder ordinal within the document; it doubles
	// as a compact unique identifier.
	Ord int32
	// End is the preorder ordinal of the node's last descendant (Ord for
	// a leaf).
	End int32

	level int32 // 1 for a forest root
	pos   int32 // index among the parent's children (the forest's roots)

	Parent   *Node
	Children []*Node
}

// ID is a node's Dewey identifier, held as a handle to the node: its
// components are the positions on the path from the node's tree root down
// to it, read from the nodes rather than stored. The zero ID names the
// virtual forest root.
type ID struct{ n *Node }

// Path returns the Dewey components, root first.
func (id ID) Path() dewey.ID {
	if id.n == nil {
		return nil
	}
	p := make(dewey.ID, id.n.level)
	for c := id.n; c != nil; c = c.Parent {
		p[c.level-1] = int(c.pos)
	}
	return p
}

// String renders the ID in the dotted form of dewey.ID, e.g. "2.0.4".
func (id ID) String() string {
	if id.n == nil {
		return dewey.ID(nil).String()
	}
	return string(id.Append(make([]byte, 0, 4*id.n.level)))
}

// Append appends the dotted form String returns to dst.
func (id ID) Append(dst []byte) []byte {
	if id.n == nil {
		return dewey.ID(nil).Append(dst)
	}
	return appendPositions(dst, id.n)
}

// appendPositions appends the dotted positions from n's tree root down to n.
func appendPositions(dst []byte, n *Node) []byte {
	if n.Parent != nil {
		dst = append(appendPositions(dst, n.Parent), '.')
	}
	return strconv.AppendInt(dst, int64(n.pos), 10)
}

// Contains reports whether d is a strict descendant of n: the interval
// test equivalent to Dewey prefix containment within one document.
func (n *Node) Contains(d *Node) bool { return n.Ord < d.Ord && d.Ord <= n.End }

// Document is a parsed XML forest with global bookkeeping.
type Document struct {
	// Roots holds the top-level element(s). A well-formed XML document
	// has exactly one; the model permits a forest (Figure 1 shows three
	// book trees side by side).
	Roots []*Node
	// Nodes lists every node in document (preorder) order; Nodes[i].Ord == i.
	Nodes []*Node

	cols *Columns // the columns the slab was built from
}

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return len(d.Nodes) }

// Walk visits every node in preorder, stopping early if fn returns false.
func (d *Document) Walk(fn func(*Node) bool) {
	for _, n := range d.Nodes {
		if !fn(n) {
			return
		}
	}
}

// Tags returns the sorted set of distinct tags in the document.
func (d *Document) Tags() []string {
	set := make(map[string]struct{})
	for _, n := range d.Nodes {
		set[n.Tag] = struct{}{}
	}
	tags := make([]string, 0, len(set))
	for t := range set {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// Path returns the slash-separated tag path from the tree root to n,
// e.g. "site/regions/africa/item".
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		parts = append(parts, cur.Tag)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Descendants appends all strict descendants of n in document order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	var walk func(c *Node)
	walk = func(c *Node) {
		out = append(out, c)
		for _, cc := range c.Children {
			walk(cc)
		}
	}
	for _, c := range n.Children {
		walk(c)
	}
	return out
}

// Level returns the node's depth: 1 for a forest root, the length of its
// Dewey ID.
func (n *Node) Level() int { return int(n.level) }

// String renders "tag(value)@dewey" for debugging and error messages.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.Value != "" {
		return n.Tag + "(" + n.Value + ")@" + n.ID.String()
	}
	return n.Tag + "@" + n.ID.String()
}
