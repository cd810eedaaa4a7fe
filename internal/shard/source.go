package shard

import (
	"slices"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Corpus implements index.Source over the whole forest by merging the
// per-part indexes (plus the spine).
var _ index.Source = (*Corpus)(nil)

// Nodes returns all nodes with the tag in document order, merged across
// parts and spine. The returned slice is shared and must not be
// modified.
func (c *Corpus) Nodes(tag string) []*xmltree.Node {
	return c.NodesMatching(tag, index.ValueTest{})
}

// NodesMatching returns the tag nodes satisfying vt in document order:
// the parts' own (tag, vt) postings — an equality test never touches
// the other values' nodes — plus the matching spine nodes, merged by
// ordinal and kept in a bounded cache.
func (c *Corpus) NodesMatching(tag string, vt index.ValueTest) []*xmltree.Node {
	// hit and err dropped: only a miss builds, and the build cannot fail
	out, _, _ := c.merged.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]*xmltree.Node, error) {
		var out []*xmltree.Node
		for _, p := range c.parts {
			out = append(out, p.Ix.NodesMatching(tag, vt)...)
		}
		for _, n := range c.spineByTag[tag] {
			if vt.Matches(n.Value) {
				out = append(out, n)
			}
		}
		slices.SortFunc(out, func(a, b *xmltree.Node) int { return a.Ord - b.Ord })
		return out, nil
	})
	return out
}

// home resolves the shard holding n: the part ID of its nearest
// unit-root ancestor, or -1 when n sits on the spine.
func (c *Corpus) home(n *xmltree.Node) int {
	for cur := n; cur != nil; cur = cur.Parent {
		if h, ok := c.homes[cur.Ord]; ok {
			return h
		}
	}
	return -1
}

// AppendCandidates appends the tag nodes satisfying vt on the axis of
// anchor to dst, in document order. Anchors inside a part delegate to
// that part's index — complete subtrees make the local answer globally
// exact. Spine anchors (whose subtrees span parts) merge the spine with
// per-part range scans under the dominated units.
// +whirllint:hotpath
func (c *Corpus) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt index.ValueTest) []*xmltree.Node {
	switch axis {
	case dewey.Self:
		if anchor.Tag == tag && vt.Matches(anchor.Value) {
			return append(dst, anchor)
		}
		return dst
	case dewey.Child:
		for _, ch := range anchor.Children {
			if ch.Tag == tag && vt.Matches(ch.Value) {
				dst = append(dst, ch)
			}
		}
		return dst
	case dewey.Descendant:
		if h := c.home(anchor); h >= 0 {
			return c.parts[h].Ix.AppendCandidates(dst, anchor, axis, tag, vt)
		}
		return c.spineDescendants(dst, anchor, tag, vt)
	default:
		return dst
	}
}

// spineDescendants appends the tag descendants of a spine anchor to dst:
// the matching spine nodes strictly below it, plus — for every unit the
// anchor dominates — the unit root and the unit's local descendant scan.
// Only the appended tail is sorted, so dst's existing prefix is untouched.
func (c *Corpus) spineDescendants(dst []*xmltree.Node, anchor *xmltree.Node, tag string, vt index.ValueTest) []*xmltree.Node {
	start := len(dst)
	for _, s := range c.spineByTag[tag] {
		if s != anchor && anchor.ID.IsAncestorOf(s.ID) && vt.Matches(s.Value) {
			dst = append(dst, s)
		}
	}
	for _, p := range c.parts {
		for _, u := range p.Units {
			if !anchor.ID.IsAncestorOf(u.ID) {
				continue
			}
			if u.Tag == tag && vt.Matches(u.Value) {
				dst = append(dst, u)
			}
			dst = p.Ix.AppendCandidates(dst, u, dewey.Descendant, tag, vt)
		}
	}
	tail := dst[start:]
	slices.SortFunc(tail, func(a, b *xmltree.Node) int { return a.Ord - b.Ord })
	return dst
}

// ShardSources returns the partition NewEngines runs one engine over
// each member of: one sub-source per part, plus — when interior nodes
// were cut — a spine sub-source covering the residual forest whose
// subtrees span parts. Together the sub-sources' root sets partition the
// corpus's, and each is exact for its own anchors.
func (c *Corpus) ShardSources() []index.Source {
	out := make([]index.Source, 0, len(c.parts)+1)
	for _, p := range c.parts {
		out = append(out, p.Ix)
	}
	if len(c.spine) > 0 {
		out = append(out, &spineView{c: c})
	}
	return out
}

// spineView exposes the spine — the cut interior nodes whose subtrees
// span parts — as an index.Source. Tag scans see only spine nodes
// (that is the partition contract: the spine owns these roots), while
// structural probes anchored at a spine node answer over the whole
// corpus via Corpus.AppendCandidates.
type spineView struct {
	c *Corpus
}

var _ index.Source = (*spineView)(nil)

func (v *spineView) Nodes(tag string) []*xmltree.Node { return v.c.spineByTag[tag] }

func (v *spineView) NodesMatching(tag string, vt index.ValueTest) []*xmltree.Node {
	if vt.Any() {
		return v.c.spineByTag[tag]
	}
	var out []*xmltree.Node
	for _, n := range v.c.spineByTag[tag] {
		if vt.Matches(n.Value) {
			out = append(out, n)
		}
	}
	return out
}

// +whirllint:hotpath
func (v *spineView) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt index.ValueTest) []*xmltree.Node {
	return v.c.AppendCandidates(dst, anchor, axis, tag, vt)
}
