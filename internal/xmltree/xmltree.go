// Package xmltree implements the paper's XML data model: information is a
// forest of node-labeled trees (Section 2). Every element node carries its
// tag, an optional text value (the concatenated character data directly
// under it), a Dewey identifier, its preorder interval, and pointers to
// its parent and children.
//
// Documents are parsed from serialized XML with encoding/xml and can be
// serialized back; attributes are modeled as child nodes tagged "@name" so
// structural predicates treat them uniformly (the paper's queries do not
// use attributes, but XMark documents carry them).
package xmltree

import (
	"sort"
	"strings"

	"repro/internal/dewey"
)

// Node is one node of a node-labeled XML tree. Structural tests need no
// Dewey components: a node's descendants are exactly the ordinals in
// (Ord, End] — the region numbering that stands beside Dewey in the XML
// indexing literature — and its level is the length of its ID. Ord and
// End are int32 so that a Node stays in the 96-byte allocation size class.
type Node struct {
	// Tag is the element name (or "@name" for an attribute node).
	Tag string
	// Value is the trimmed character data directly under the element.
	// Empty for pure-structure nodes.
	Value string
	// ID is the node's Dewey identifier within its tree. Roots of the
	// forest get IDs [i] under a virtual forest root, so IDs are unique
	// document-wide. Answers render it; the engine reads only its length.
	ID dewey.ID
	// Ord is the node's preorder ordinal within the document; it doubles
	// as a compact unique identifier.
	Ord int32
	// End is the preorder ordinal of the node's last descendant (Ord for
	// a leaf).
	End int32

	Parent   *Node
	Children []*Node
}

// Contains reports whether d is a strict descendant of n: the interval
// test equivalent to n.ID.IsAncestorOf(d.ID) within one document.
func (n *Node) Contains(d *Node) bool { return n.Ord < d.Ord && d.Ord <= n.End }

// Document is a parsed XML forest with global bookkeeping.
type Document struct {
	// Roots holds the top-level element(s). A well-formed XML document
	// has exactly one; the model permits a forest (Figure 1 shows three
	// book trees side by side).
	Roots []*Node
	// Nodes lists every node in document (preorder) order; Nodes[i].Ord == i.
	Nodes []*Node
}

// NewDocument builds an empty document.
func NewDocument() *Document { return &Document{} }

// AddRoot appends a new top-level element with the given tag and returns it.
func (d *Document) AddRoot(tag string) *Node {
	n := &Node{Tag: tag, ID: dewey.ID{}.Child(len(d.Roots))}
	d.Roots = append(d.Roots, n)
	d.renumber()
	return n
}

// AddChild appends a new child element to parent and returns it. The
// document's preorder numbering is not refreshed automatically; call
// Renumber after bulk construction (Builder does this for you).
func (d *Document) AddChild(parent *Node, tag, value string) *Node {
	n := &Node{
		Tag:    tag,
		Value:  value,
		ID:     parent.ID.Child(len(parent.Children)),
		Parent: parent,
	}
	parent.Children = append(parent.Children, n)
	return n
}

// Renumber rebuilds the preorder Nodes slice, ordinals and intervals
// after manual tree construction.
func (d *Document) Renumber() { d.renumber() }

func (d *Document) renumber() {
	d.Nodes = d.Nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.Ord = int32(len(d.Nodes))
		d.Nodes = append(d.Nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
		n.End = int32(len(d.Nodes) - 1)
	}
	for _, r := range d.Roots {
		walk(r)
	}
}

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return len(d.Nodes) }

// NodeByOrd returns the node with the given preorder ordinal, or nil.
func (d *Document) NodeByOrd(ord int) *Node {
	if ord < 0 || ord >= len(d.Nodes) {
		return nil
	}
	return d.Nodes[ord]
}

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

// Level returns the node's depth: 1 for a forest root (its Dewey ID has
// one component under the virtual forest root).
func (n *Node) Level() int { return n.ID.Level() }

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
