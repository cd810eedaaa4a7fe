package index

import (
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Source is the access-path contract the engine, the scorers and the
// reference evaluators consume: root candidates (Nodes, NodesMatching)
// and "the tag nodes on this axis of this anchor" (Probe, or
// AppendCandidates to resolve and probe in one call) — all a Whirlpool
// server needs from storage (Section 5). The one implementation with a
// probe of its own is Index, one posting layout with two backings: the
// heap columns Build fills and the mapped columns store.SnapshotReader
// validates and embeds. View restricts a Source to one member of a
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
	// Probe resolves (tag, vt) once for structural probes; its Append
	// then scans per anchor without resolving again.
	Probe(tag string, vt ValueTest) Probe
	// AppendCandidates appends the tag nodes satisfying vt on the given
	// axis of anchor (Self, Child or Descendant) to dst, in document
	// order, and returns the extended slice. dst is typically a reused
	// scratch sliced to [:0], so hot probe loops allocate nothing in the
	// steady state. Implementations must not retain dst, and the
	// appended *xmltree.Node pointers remain valid after dst is reused.
	AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node
}

var _ Source = (*Index)(nil)
