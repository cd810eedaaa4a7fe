package xmltree

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Columns is a document in the column form a snapshot stores and every
// document is made in (Parse, ParseProjected, Builder): a tag table, and
// per preorder ordinal a tag id, a parent ordinal, a subtree size, a
// level, a position and a value span. They are the document every
// serving structure reads: node ord's descendants are the ordinals in
// (ord, End(ord)], its ancestors are reached through Parents, and its
// Dewey ID and path are rendered from Parents, Pos and Tags. Build turns
// the columns into a node slab for callers that walk *Node trees, so a
// made and a snapshot-backed document share one node layout.
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
	// Level holds each node's depth, 1 for a forest root, and Pos its
	// index among its parent's children (among the forest's roots for a
	// root). The column writer fills both; a snapshot stores neither, and
	// Shape derives them from Parents.
	Level, Pos []int32
	// Node i's value is Values[ValueLo[i]:ValueHi[i]].
	ValueLo, ValueHi []uint32
	Values           string
}

// Build wires the columns into one node slab: a []Node in preorder, one
// children slab every Children slice points into, and each node's Ord,
// End, level, position and ID handle, all in one pass. Strings alias
// Tags and Values. Build indexes the columns as given: every tag id and
// value span in range, every parent before its child — the column
// writer produces such columns by construction, and the snapshot reader
// checks them when it opens a file. It is the only maker of a Document.
func (c *Columns) Build() *Document {
	slabsBuilt.Add(1)
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
	doc := &Document{Nodes: make([]*Node, n), cols: c}
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

// slabsBuilt counts the node slabs Build has built (SlabsBuilt).
var slabsBuilt atomic.Int64

// SlabsBuilt returns how many node slabs Columns.Build has built in this
// process, so that a path meant to serve from the columns alone can be
// checked to build none.
func SlabsBuilt() int64 { return slabsBuilt.Load() }

// Columns returns the columns the document was built from.
func (d *Document) Columns() *Columns { return d.cols }

// Shape derives Level and Pos from Parents, in one pass, for columns
// read from storage: they must hold a parent before each child, and a
// subtree that stays inside the document, as the snapshot reader checks.
// It also checks that every node's children tile its interval in order —
// the first starts right after it, each next one where the last ended,
// and the last ends where it does — and that each root starts where the
// last one ended (they then tile the document: a node past the last
// root's interval would leave one of its ancestors'). Then every
// interval holding a node is an ancestor's, so every containment the
// engine decides on intervals agrees with the parent links it climbs;
// the first node that breaks this is reported.
func (c *Columns) Shape() error {
	n := len(c.Parents)
	c.Level, c.Pos = make([]int32, n), make([]int32, n)
	// Per parent ordinal + 1 ([0] for the roots): children so far, and
	// where the next child must start, less that ordinal + 1.
	kids, next := make([]int32, n+1), make([]uint32, n+1)
	for i, p := range c.Parents {
		if next[p] != uint32(i)-p {
			return fmt.Errorf("xmltree: node %d is not where its parent %d's next child must start", i, int32(p)-1)
		}
		next[p] = uint32(i) + c.Subtree[i] - p
		if p != 0 {
			c.Level[i] = c.Level[p-1] + 1
		} else {
			c.Level[i] = 1
		}
		c.Pos[i] = kids[p]
		kids[p]++
	}
	for i := 0; i < n; i++ {
		if next[i+1] != c.Subtree[i]-1 {
			return fmt.Errorf("xmltree: node %d's children do not end where its subtree does", i)
		}
	}
	return nil
}

// Len returns the number of nodes.
func (c *Columns) Len() int { return len(c.TagIDs) }

// Tag returns node ord's tag.
func (c *Columns) Tag(ord int32) string { return c.Tags[c.TagIDs[ord]] }

// Value returns node ord's value.
func (c *Columns) Value(ord int32) string { return c.Values[c.ValueLo[ord]:c.ValueHi[ord]] }

// End returns the ordinal of node ord's last descendant (ord for a leaf).
func (c *Columns) End(ord int32) int32 { return ord + int32(c.Subtree[ord]) - 1 }

// Parent returns node ord's parent, -1 for a forest root.
func (c *Columns) Parent(ord int32) int32 { return int32(c.Parents[ord]) - 1 }

// Contains reports whether d is a strict descendant of a: the interval
// test Node.Contains makes.
func (c *Columns) Contains(a, d int32) bool { return a < d && d <= c.End(a) }

// Roots returns the number of forest roots.
func (c *Columns) Roots() int {
	roots := 0
	for _, p := range c.Parents {
		if p == 0 {
			roots++
		}
	}
	return roots
}

// AppendDewey appends node ord's Dewey ID in the dotted form
// Node.ID.Append writes: the positions from its tree root down.
func (c *Columns) AppendDewey(dst []byte, ord int32) []byte {
	if p := c.Parent(ord); p >= 0 {
		dst = append(c.AppendDewey(dst, p), '.')
	}
	return strconv.AppendInt(dst, int64(c.Pos[ord]), 10)
}

// Path returns the slash-separated tag path from node ord's tree root to
// it, as Node.Path does.
func (c *Columns) Path(ord int32) string {
	parts := make([]string, c.Level[ord])
	for a := ord; a >= 0; a = c.Parent(a) {
		parts[c.Level[a]-1] = c.Tag(a)
	}
	return strings.Join(parts, "/")
}
