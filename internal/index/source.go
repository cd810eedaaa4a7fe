package index

import (
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Source is the access-path contract the engine, the scorers and the
// reference evaluators consume: the document's columns (Cols), root
// candidates as ordinals (Ords) and "the tag nodes on this axis of this
// anchor" (Probe) — all a Whirlpool server needs from storage
// (Section 5). The one implementation with a probe of its own is Index,
// one posting layout with two backings: the heap columns Build fills and
// the mapped columns store.SnapshotReader validates and embeds
// (shard.Corpus only embeds its backing). Swapping backings exercises
// the paper's observation that adaptivity pays off most "in scenarios
// where data is stored on disk" (Section 6.3.3). Database statistics
// are not part of the contract: score.CollectStats derives them from
// Ords and the columns' parent links.
//
// The rest of the contract is the *xmltree.Node edge for callers that
// walk nodes (the reference evaluators, the facade's answers): Document
// builds the node slab from the columns on first use, and Nodes,
// NodesMatching and AppendCandidates answer over it.
type Source interface {
	// Cols returns the document's columns; every ordinal indexes them.
	Cols() *xmltree.Columns
	// Ords returns the ordinals of the tag nodes whose values satisfy
	// vt, ascending. The slice is shared; callers must not modify it.
	Ords(tag string, vt ValueTest) []uint32
	// Probe resolves (tag, vt) once for structural probes; its Append
	// then scans per anchor without resolving again.
	Probe(tag string, vt ValueTest) Probe

	// Document returns the node slab, built on first use.
	Document() *xmltree.Document
	// Nodes returns all nodes with the given tag in document order.
	Nodes(tag string) []*xmltree.Node
	// NodesMatching returns the nodes with the tag whose values satisfy
	// vt, in document order.
	NodesMatching(tag string, vt ValueTest) []*xmltree.Node
	// AppendCandidates appends the tag nodes satisfying vt on the given
	// axis of anchor (Self, Child or Descendant) to dst, in document
	// order, and returns the extended slice.
	AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node
}

var _ Source = (*Index)(nil)
