package index

import (
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Source is the access-path contract the engine, the scorers and the
// reference evaluators consume: root candidates (Nodes, NodesMatching)
// and "the tag nodes on this axis of this anchor" (AppendCandidates) —
// all a Whirlpool server needs from storage (Section 5). Two backings
// implement it — the in-memory Index and the mmap-backed
// store.SnapshotReader — and View restricts either to one member of a
// partition (shard.Corpus only embeds its backing); swapping backings
// exercises the paper's observation that adaptivity pays off most "in
// scenarios where data is stored on disk" (Section 6.3.3). Database
// statistics are not part of the contract: score.CollectStats derives
// them from Nodes, NodesMatching and the nodes' Parent links.
type Source interface {
	// Nodes returns all nodes with the given tag in document order.
	Nodes(tag string) []*xmltree.Node
	// NodesMatching returns the nodes with the tag whose values satisfy
	// vt, in document order.
	NodesMatching(tag string, vt ValueTest) []*xmltree.Node
	// AppendCandidates appends the tag nodes satisfying vt on the given
	// axis of anchor (Self, Child or Descendant) to dst, in document
	// order, and returns the extended slice. dst is typically a reused
	// scratch sliced to [:0], so hot probe loops allocate nothing in the
	// steady state. Implementations must not retain dst, and the
	// appended *xmltree.Node pointers remain valid after dst is reused.
	AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node
}

var _ Source = (*Index)(nil)
