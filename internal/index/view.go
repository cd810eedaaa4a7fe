package index

import (
	"repro/internal/dewey"
	"repro/internal/lru"
	"repro/internal/xmltree"
)

// View is one member of a partitioned corpus: a backing Source seen
// through an ordinal → member table. Its enumerations are the backing
// posting lists restricted to the ordinals the table gives the member;
// a structural probe is the backing source's, unchanged — a member that
// owns complete subtrees finds every candidate below its own anchors
// there, and a member of cut interior nodes (the spine) is meant to
// reach into the others.
type View struct {
	src    Source
	owner  []int32 // preorder ordinal → member; shared by the partition's views
	member int32

	own *lru.Cache[postingKey, []*xmltree.Node] // the member's (tag, value test) postings
}

var _ Source = (*View)(nil)

// NewView returns the member's view of src under the owner table.
func NewView(src Source, owner []int32, member int) *View {
	return &View{src: src, owner: owner, member: int32(member),
		own: lru.New[postingKey, []*xmltree.Node](lru.PostingsCap)}
}

// Nodes returns the member's nodes with the tag in document order.
func (v *View) Nodes(tag string) []*xmltree.Node { return v.NodesMatching(tag, ValueTest{}) }

// NodesMatching returns the member's tag nodes satisfying vt, in
// document order, kept in a bounded cache.
func (v *View) NodesMatching(tag string, vt ValueTest) []*xmltree.Node {
	// hit and err dropped: only a miss builds, and the build cannot fail
	out, _, _ := v.own.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]*xmltree.Node, error) {
		var out []*xmltree.Node
		for _, n := range v.src.NodesMatching(tag, vt) {
			if v.owner[n.Ord] == v.member {
				out = append(out, n)
			}
		}
		return out, nil
	})
	return out
}

// Probe is the backing source's probe.
func (v *View) Probe(tag string, vt ValueTest) Probe { return v.src.Probe(tag, vt) }

// AppendCandidates is the backing source's probe.
// +whirllint:hotpath
func (v *View) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node {
	return v.src.AppendCandidates(dst, anchor, axis, tag, vt)
}
