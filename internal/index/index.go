// Package index provides the per-document access paths the Whirlpool
// servers probe: tag postings in document order, (tag, value) postings for
// content predicates, and preorder-interval scans for the structural axes
// (a node's descendants are the ordinals in its (Ord, End] interval). It
// also defines PredicateStats, the shape of the database statistics
// behind the paper's tf*idf scoring (Section 4) and the routing estimates
// (Section 6.1.4); score.CollectStats computes them over any Source.
//
// When a query is executed on an XML document, "the document is parsed and
// nodes involved in the query are stored in indexes along with their Dewey
// encoding" (Section 6.2.1); Build is that step.
package index

import (
	"repro/internal/dewey"
	"repro/internal/lru"
	"repro/internal/xmltree"
)

// Index holds the access paths for one document.
type Index struct {
	// Doc is the indexed document.
	Doc *xmltree.Document

	byTag      map[string][]*xmltree.Node
	byTagValue map[valueKey][]*xmltree.Node

	filtered *lru.Cache[postingKey, []*xmltree.Node] // cache for non-equality value tests
}

// valueKey identifies one (tag, value) posting list. A struct key, not a
// concatenated string: an equality probe then builds its key without
// allocating, whatever the value's length.
type valueKey struct{ tag, value string }

// postingKey identifies one cached filtered posting list; the value
// comes from the request, so the cache it keys is bounded.
type postingKey struct{ tag, op, value string }

// Build constructs the index over doc in a single preorder pass, so all
// postings lists are in document (preorder) order.
func Build(doc *xmltree.Document) *Index {
	ix := &Index{
		Doc:        doc,
		byTag:      make(map[string][]*xmltree.Node),
		byTagValue: make(map[valueKey][]*xmltree.Node),
		filtered:   lru.New[postingKey, []*xmltree.Node](lru.PostingsCap),
	}
	for _, n := range doc.Nodes {
		ix.byTag[n.Tag] = append(ix.byTag[n.Tag], n)
		if n.Value != "" {
			key := valueKey{n.Tag, n.Value}
			ix.byTagValue[key] = append(ix.byTagValue[key], n)
		}
	}
	return ix
}

// Nodes returns all nodes with the given tag in document order. The
// returned slice is shared; callers must not modify it.
func (ix *Index) Nodes(tag string) []*xmltree.Node { return ix.byTag[tag] }

// NodesMatching returns the nodes with the given tag whose values satisfy
// vt, in document order. Match-any and equality tests hit postings
// directly; other operators filter the tag postings and keep the result
// in a bounded cache.
// +whirllint:allocok cache fill on the first probe of a (tag, predicate) pair; steady-state hits are allocation-free
func (ix *Index) NodesMatching(tag string, vt ValueTest) []*xmltree.Node {
	switch {
	case vt.Any():
		return ix.byTag[tag]
	case vt.IsEquality():
		return ix.byTagValue[valueKey{tag, vt.Value}]
	}
	// hit and err dropped: only a miss builds, and the build cannot fail
	out, _, _ := ix.filtered.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]*xmltree.Node, error) {
		var out []*xmltree.Node
		for _, n := range ix.byTag[tag] {
			if vt.Matches(n.Value) {
				out = append(out, n)
			}
		}
		return out, nil
	})
	return out
}

// AppendCandidates appends the nodes with the given tag whose values
// satisfy vt, on the given axis of anchor, to dst in document order.
// Supported axes are Self, Child and Descendant — the axes structural
// probes use after Algorithm 1's composition to the query root.
// +whirllint:hotpath
func (ix *Index) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node {
	switch axis {
	case dewey.Self:
		if anchor.Tag == tag && vt.Matches(anchor.Value) {
			return append(dst, anchor)
		}
		return dst
	case dewey.Child:
		for _, c := range anchor.Children {
			if c.Tag == tag && vt.Matches(c.Value) {
				dst = append(dst, c)
			}
		}
		return dst
	case dewey.Descendant:
		return ix.rangeScan(dst, anchor, tag, vt)
	default:
		return dst
	}
}

// rangeScan appends the postings inside anchor's preorder interval
// (Ord, End] to dst. Postings ascend in preorder ordinal (Build walks
// doc.Nodes), so the interval is one slice of them: found by a binary
// search on Ord, then walked to its end, one ordinal load per posting.
func (ix *Index) rangeScan(dst []*xmltree.Node, anchor *xmltree.Node, tag string, vt ValueTest) []*xmltree.Node {
	postings := ix.NodesMatching(tag, vt)
	lo := firstAfter(postings, anchor.Ord)
	hi := lo
	for hi < len(postings) && postings[hi].Ord <= anchor.End {
		hi++
	}
	return append(dst, postings[lo:hi]...)
}

// firstAfter returns the index of the first posting whose ordinal
// exceeds ord. Hand-rolled so the probe carries no closure.
func firstAfter(postings []*xmltree.Node, ord int32) int {
	lo, hi := 0, len(postings)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if postings[m].Ord <= ord {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
