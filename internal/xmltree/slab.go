package xmltree

import (
	"fmt"
	"math"
	"strings"
)

// Columns is a document in the column form a snapshot stores and Parse
// streams into: a tag table, and per preorder ordinal a tag id, a parent
// ordinal, a subtree size and a value span. Build turns the columns into
// a Document, so a parsed and a snapshot-backed document share one node
// layout.
type Columns struct {
	// Tags is the document's tag table; every node's Tag is one of these
	// strings, so a tag is stored once however many nodes carry it.
	Tags []string
	// TagIDs holds each node's index into Tags.
	TagIDs []uint32
	// Parents holds each node's parent ordinal + 1, 0 for a forest root.
	Parents []uint32
	// Subtree holds each node's subtree size, itself included.
	Subtree []uint32
	// Node i's value is Values[ValueLo[i]:ValueHi[i]].
	ValueLo, ValueHi []uint32
	Values           string
}

// Build wires the columns into one node slab: a []Node in preorder, one
// children slab every Children slice points into, and each node's Ord,
// End, level, position and ID handle, all in one pass. Strings alias
// Tags and Values. Build indexes the columns as given: every tag id and
// value span in range, every parent before its child — Parse produces
// such columns by construction, and the snapshot reader checks them when
// it opens a file.
func (c *Columns) Build() *Document {
	n := len(c.TagIDs)
	// childOff[i] is where node i's children start in the slab.
	childOff := make([]int32, n+1)
	for _, p := range c.Parents {
		if p != 0 {
			childOff[p]++
		}
	}
	for i := 0; i < n; i++ {
		childOff[i+1] += childOff[i]
	}
	slab := make([]*Node, childOff[n])
	nodes := make([]Node, n)
	doc := &Document{Nodes: make([]*Node, n)}
	for i := range nodes {
		nd := &nodes[i]
		doc.Nodes[i] = nd
		nd.Tag = c.Tags[c.TagIDs[i]]
		nd.Value = c.Values[c.ValueLo[i]:c.ValueHi[i]]
		nd.ID = ID{nd}
		nd.Ord = int32(i)
		nd.End = int32(i) + int32(c.Subtree[i]) - 1
		// Filled by its children's appends; the capacity is exactly the
		// child count, so an append never leaves the slab.
		nd.Children = slab[childOff[i]:childOff[i]:childOff[i+1]]
		if p := c.Parents[i]; p != 0 {
			parent := &nodes[p-1]
			nd.Parent = parent
			nd.level = parent.level + 1
			nd.pos = int32(len(parent.Children))
			parent.Children = append(parent.Children, nd)
		} else {
			nd.level = 1
			nd.pos = int32(len(doc.Roots))
			doc.Roots = append(doc.Roots, nd)
		}
	}
	return doc
}

// Columns derives the columns of a document built some other way —
// through Builder, ParseProjected or AddChild and Renumber — so that the
// structures derived from columns are derived the same way for every
// document. Tags are numbered in order of first appearance in preorder,
// as Parse numbers them, and the values lie end to end in preorder, as a
// snapshot stores them. The document must be renumbered (Nodes[i].Ord ==
// i); its values must total less than 4 GiB, the reach of a value span,
// which Parse and the snapshot writer check before they get here.
func (d *Document) Columns() *Columns {
	n := len(d.Nodes)
	c := &Columns{
		TagIDs: make([]uint32, n), Parents: make([]uint32, n), Subtree: make([]uint32, n),
		ValueLo: make([]uint32, n), ValueHi: make([]uint32, n),
	}
	size := 0
	for _, nd := range d.Nodes {
		size += len(nd.Value)
	}
	if size > math.MaxUint32 {
		panic(fmt.Sprintf("xmltree: %d value bytes exceed the uint32 value spans", size))
	}
	ids := make(map[string]uint32)
	var values strings.Builder
	values.Grow(size)
	for i, nd := range d.Nodes {
		id, ok := ids[nd.Tag]
		if !ok {
			id = uint32(len(c.Tags))
			ids[nd.Tag] = id
			c.Tags = append(c.Tags, nd.Tag)
		}
		c.TagIDs[i] = id
		if nd.Parent != nil {
			c.Parents[i] = uint32(nd.Parent.Ord) + 1
		}
		c.Subtree[i] = uint32(nd.End-nd.Ord) + 1
		c.ValueLo[i] = uint32(values.Len())
		values.WriteString(nd.Value)
		c.ValueHi[i] = uint32(values.Len())
	}
	c.Values = values.String()
	return c
}
