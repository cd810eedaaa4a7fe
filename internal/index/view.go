package index

import (
	"repro/internal/lru"
	"repro/internal/xmltree"
)

// View is one member of a partitioned corpus: a backing Source seen
// through an ordinal → member table. Its enumerations are the backing
// posting lists restricted to the ordinals the table gives the member;
// everything else — columns, structural probes, the node slab — is the
// backing source's, unchanged: a member that owns complete subtrees
// finds every candidate below its own anchors there, and a member of cut
// interior nodes (the spine) is meant to reach into the others.
type View struct {
	Source
	owner  []int32 // preorder ordinal → member; shared by the partition's views
	member int32

	own *lru.Cache[postingKey, []uint32] // the member's (tag, value test) postings
}

var _ Source = (*View)(nil)

// NewView returns the member's view of src under the owner table.
func NewView(src Source, owner []int32, member int) *View {
	return &View{Source: src, owner: owner, member: int32(member),
		own: lru.New[postingKey, []uint32](lru.PostingsCap)}
}

// Ords returns the member's tag nodes satisfying vt, ascending, kept in
// a bounded cache.
func (v *View) Ords(tag string, vt ValueTest) []uint32 {
	// hit and err dropped: only a miss builds, and the build cannot fail
	out, _, _ := v.own.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]uint32, error) {
		var out []uint32
		for _, o := range v.Source.Ords(tag, vt) {
			if v.owner[o] == v.member {
				out = append(out, o)
			}
		}
		return out, nil
	})
	return out
}

// Nodes returns the member's nodes with the tag in document order.
func (v *View) Nodes(tag string) []*xmltree.Node { return v.NodesMatching(tag, ValueTest{}) }

// NodesMatching returns the member's tag nodes satisfying vt, in
// document order: Ords over the node slab.
func (v *View) NodesMatching(tag string, vt ValueTest) []*xmltree.Node {
	return nodesAt(v.Document(), v.Ords(tag, vt))
}
