// Package index provides the per-document access paths the Whirlpool
// servers probe: tag postings in document order, (tag, value) postings
// for content predicates, and preorder-interval scans for the structural
// axes (a node's descendants are the ordinals in its (Ord, End]
// interval). It also defines PredicateStats, the shape of the database
// statistics behind the paper's tf*idf scoring (Section 4) and the
// routing estimates (Section 6.1.4); score.CollectStats computes them
// over any Source.
//
// When a query is executed on an XML document, "the document is parsed
// and nodes involved in the query are stored in indexes along with their
// Dewey encoding" (Section 6.2.1); Build is that step. The index is one
// column layout (Columns) with two backings: Build fills the columns on
// the heap, and store.SnapshotReader validates the same columns over the
// sections of a mapped snapshot file (Open) — the paper's in-memory and
// disk-resident scenarios (Section 6.3.3) served by one probe. View
// restricts either backing to one member of a partition.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dewey"
	"repro/internal/lru"
	"repro/internal/xmltree"
)

// Columns is the posting layout, as a WPXS snapshot stores it. Ordinals
// are preorder positions in the document's node slab.
type Columns struct {
	// Tags is the tag table, in order of first appearance in preorder.
	Tags []string
	// TagOff and TagOrds are the tag postings: tag t's nodes are the
	// ordinals TagOrds[TagOff[t]:TagOff[t+1]], ascending.
	TagOff, TagOrds []uint32
	// KeyTags and Keys are the (tag id, value) keys of the valued nodes,
	// sorted by tag id, then value.
	KeyTags []uint32
	Keys    []string
	// KeyOff and KeyOrds are the value postings: key k's nodes are the
	// ordinals KeyOrds[KeyOff[k]:KeyOff[k+1]], ascending and never empty.
	KeyOff, KeyOrds []uint32
}

// Index holds one document's postings over its node slab.
type Index struct {
	// Doc is the indexed document; every ordinal indexes Doc.Nodes.
	Doc *xmltree.Document
	// Columns are the postings; read-only.
	Columns

	tagIDs map[string]uint32
	cache  *lru.Cache[postingKey, posting] // NodesMatching's lists and the filtered groups
}

// postingKey identifies one cached posting; the value comes from the
// request, so the cache it keys is bounded.
type postingKey struct{ tag, op, value string }

// posting is one cached (tag, value test): the ordinals of the tag nodes
// satisfying it and the same nodes as pointers.
type posting struct {
	ords  []uint32
	nodes []*xmltree.Node
}

// Build indexes doc on the heap.
func Build(doc *xmltree.Document) *Index {
	// One preorder pass assigns every node its tag id and every valued
	// node its (tag id, value) key, both numbered first seen first.
	const unvalued = ^uint32(0)
	type tagValue struct {
		tag   uint32
		value string
	}
	var (
		c        Columns
		tagIDs   = make(map[string]uint32)
		keyIDs   []map[string]uint32 // per tag id: value → key
		keys     []tagValue
		count    []uint32 // per key: its node count, then its fill position
		nodeTags = make([]uint32, len(doc.Nodes))
		keyed    = make([]uint32, len(doc.Nodes)) // per node: its key, or unvalued
	)
	for i, n := range doc.Nodes {
		t, ok := tagIDs[n.Tag]
		if !ok {
			t = uint32(len(c.Tags))
			tagIDs[n.Tag] = t
			c.Tags = append(c.Tags, n.Tag)
			keyIDs = append(keyIDs, make(map[string]uint32))
		}
		nodeTags[i], keyed[i] = t, unvalued
		if n.Value == "" {
			continue
		}
		k, ok := keyIDs[t][n.Value]
		if !ok {
			k = uint32(len(keys))
			keyIDs[t][n.Value] = k
			keys, count = append(keys, tagValue{t, n.Value}), append(count, 0)
		}
		count[k]++
		keyed[i] = k
	}

	// Tag postings: a counting sort of the ordinals by tag id.
	c.TagOff = make([]uint32, len(c.Tags)+1)
	for _, t := range nodeTags {
		c.TagOff[t+1]++
	}
	for t := range c.Tags {
		c.TagOff[t+1] += c.TagOff[t]
	}
	c.TagOrds = make([]uint32, len(doc.Nodes))
	fill := slices.Clone(c.TagOff[:len(c.Tags)])
	for i, t := range nodeTags {
		c.TagOrds[fill[t]] = uint32(i)
		fill[t]++
	}

	// Value postings: the keys sorted by tag id, then value, and the
	// ordinals counting-sorted by key.
	order := make([]uint32, len(keys))
	for k := range order {
		order[k] = uint32(k)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if keys[a].tag != keys[b].tag {
			return cmp.Compare(keys[a].tag, keys[b].tag)
		}
		return strings.Compare(keys[a].value, keys[b].value)
	})
	c.KeyTags = make([]uint32, len(keys))
	c.Keys = make([]string, len(keys))
	c.KeyOff = make([]uint32, len(keys)+1)
	var pos uint32
	for i, k := range order {
		c.KeyTags[i], c.Keys[i], c.KeyOff[i] = keys[k].tag, keys[k].value, pos
		pos, count[k] = pos+count[k], pos
	}
	c.KeyOff[len(keys)] = pos
	c.KeyOrds = make([]uint32, pos)
	for i, k := range keyed {
		if k != unvalued {
			c.KeyOrds[count[k]] = uint32(i)
			count[k]++
		}
	}
	return newIndex(doc, c, tagIDs)
}

func newIndex(doc *xmltree.Document, c Columns, tagIDs map[string]uint32) *Index {
	return &Index{Doc: doc, Columns: c, tagIDs: tagIDs,
		cache: lru.New[postingKey, posting](lru.PostingsCap)}
}

// TagID returns tag's id in the tag table.
func (ix *Index) TagID(tag string) (uint32, bool) {
	t, ok := ix.tagIDs[tag]
	return t, ok
}

// Probe is a (tag, value test) resolved against one index: the
// ascending ordinals of the tag nodes that satisfy the test. Resolve
// once, then Append per anchor.
type Probe struct {
	tag   string
	vt    ValueTest
	ords  []uint32
	nodes []*xmltree.Node
}

// Probe resolves (tag, vt): the tag postings for a match-any test, the
// key's postings for an equality, and for any other test the tag
// postings filtered once and kept in a bounded cache.
func (ix *Index) Probe(tag string, vt ValueTest) Probe {
	g, filter := ix.group(tag, vt)
	if filter {
		g = ix.cached(tag, vt).ords
	}
	return Probe{tag: tag, vt: vt, ords: g, nodes: ix.Doc.Nodes}
}

// Append appends the probe's nodes on the given axis of anchor to dst in
// document order. Supported axes are Self, Child and Descendant — the
// axes structural probes use after Algorithm 1's composition to the
// query root. A Descendant scan walks the ordinals from the first past
// anchor.Ord while they stay inside anchor.End.
// +whirllint:hotpath
func (p *Probe) Append(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis) []*xmltree.Node {
	switch axis {
	case dewey.Self:
		if anchor.Tag == p.tag && p.vt.Matches(anchor.Value) {
			return append(dst, anchor)
		}
	case dewey.Child:
		for _, c := range anchor.Children {
			if c.Tag == p.tag && p.vt.Matches(c.Value) {
				dst = append(dst, c)
			}
		}
	case dewey.Descendant:
		g, end := p.ords, uint32(anchor.End)
		for i := firstAfter(g, uint32(anchor.Ord)); i < len(g) && g[i] <= end; i++ {
			dst = append(dst, p.nodes[g[i]])
		}
	}
	return dst
}

// AppendCandidates resolves (tag, vt) and appends its nodes on the
// given axis of anchor to dst (see Probe.Append).
// +whirllint:hotpath
func (ix *Index) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node {
	p := ix.Probe(tag, vt)
	return p.Append(dst, anchor, axis)
}

// Nodes returns all nodes with the given tag in document order. The
// returned slice is shared; callers must not modify it.
func (ix *Index) Nodes(tag string) []*xmltree.Node { return ix.NodesMatching(tag, ValueTest{}) }

// NodesMatching returns the nodes with the given tag whose values
// satisfy vt, in document order, kept in a bounded cache. The returned
// slice is shared; callers must not modify it.
func (ix *Index) NodesMatching(tag string, vt ValueTest) []*xmltree.Node {
	return ix.cached(tag, vt).nodes
}

// group returns the column group holding every tag node that can
// satisfy vt — the key's postings for an equality, the tag's otherwise —
// and whether vt must still filter it.
func (ix *Index) group(tag string, vt ValueTest) (g []uint32, filter bool) {
	t, ok := ix.tagIDs[tag]
	switch {
	case !ok:
		return nil, false
	case vt.IsEquality():
		k, found := ix.findKey(t, vt.Value)
		if !found {
			return nil, false
		}
		return ix.KeyOrds[ix.KeyOff[k]:ix.KeyOff[k+1]], false
	}
	return ix.TagOrds[ix.TagOff[t]:ix.TagOff[t+1]], !vt.Any()
}

// cached returns the (tag, vt) posting from the cache, building it on a
// miss.
// +whirllint:allocok cache fill on the first probe of a (tag, predicate) pair; steady-state hits are allocation-free
func (ix *Index) cached(tag string, vt ValueTest) posting {
	// hit and err dropped: only a miss builds, and the build cannot fail
	p, _, _ := ix.cache.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() (posting, error) {
		g, filter := ix.group(tag, vt)
		p := posting{ords: g}
		if filter {
			p.ords = nil
			for _, o := range g {
				if vt.Matches(ix.Doc.Nodes[o].Value) {
					p.ords = append(p.ords, o)
				}
			}
		}
		p.nodes = make([]*xmltree.Node, len(p.ords))
		for i, o := range p.ords {
			p.nodes[i] = ix.Doc.Nodes[o]
		}
		return p, nil
	})
	return p
}

// findKey binary-searches the keys for (t, value).
func (ix *Index) findKey(t uint32, value string) (int, bool) {
	lo, hi := 0, len(ix.KeyTags)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.KeyTags[m] < t || ix.KeyTags[m] == t && ix.Keys[m] < value {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ix.KeyTags) && ix.KeyTags[lo] == t && ix.Keys[lo] == value
}

// firstAfter returns the index of the first ordinal in g that exceeds
// ord. Hand-rolled so the probe carries no closure.
func firstAfter(g []uint32, ord uint32) int {
	lo, hi := 0, len(g)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g[m] <= ord {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Open wraps columns read from storage over doc, the node slab they
// index, where nodeTags[o] is node o's id in c.Tags, once they hold
// every invariant the probe relies on; a *ColumnError names the first
// column that does not.
func Open(doc *xmltree.Document, nodeTags []uint32, c Columns) (*Index, error) {
	tagIDs := make(map[string]uint32, len(c.Tags))
	for t, tag := range c.Tags {
		if _, dup := tagIDs[tag]; dup {
			return nil, &ColumnError{"Tags", t, fmt.Sprintf("tag %q appears twice", tag)}
		}
		tagIDs[tag] = uint32(t)
	}
	if err := checkOffsets(c.TagOff, len(c.Tags), len(doc.Nodes), "TagOff"); err != nil {
		return nil, err
	}
	if len(c.TagOrds) != len(doc.Nodes) {
		return nil, &ColumnError{"TagOrds", len(c.TagOrds), fmt.Sprintf("%d tag postings for %d nodes", len(c.TagOrds), len(doc.Nodes))}
	}
	for t := range c.Tags {
		if err := checkGroup(nodeTags, c.TagOrds, c.TagOff[t], c.TagOff[t+1], uint32(t), "TagOrds"); err != nil {
			return nil, err
		}
	}
	if len(c.Keys) != len(c.KeyTags) {
		return nil, &ColumnError{"Keys", len(c.Keys), fmt.Sprintf("%d values for %d key tags", len(c.Keys), len(c.KeyTags))}
	}
	if err := checkOffsets(c.KeyOff, len(c.KeyTags), len(c.KeyOrds), "KeyOff"); err != nil {
		return nil, err
	}
	for k, t := range c.KeyTags {
		switch {
		case int(t) >= len(c.Tags):
			return nil, &ColumnError{"KeyTags", k, fmt.Sprintf("tag id %d, only %d tags", t, len(c.Tags))}
		case k > 0 && (c.KeyTags[k-1] > t || c.KeyTags[k-1] == t && c.Keys[k-1] >= c.Keys[k]):
			return nil, &ColumnError{"Keys", k, "keys are not sorted by tag, then value"}
		case c.KeyOff[k] == c.KeyOff[k+1]:
			return nil, &ColumnError{"KeyOff", k, "empty value postings"}
		}
	}
	for k, t := range c.KeyTags {
		if err := checkGroup(nodeTags, c.KeyOrds, c.KeyOff[k], c.KeyOff[k+1], t, "KeyOrds"); err != nil {
			return nil, err
		}
	}
	return newIndex(doc, c, tagIDs), nil
}

// ColumnError reports a column that breaks the layout's invariants.
type ColumnError struct {
	// Column names the Columns field, e.g. "TagOrds".
	Column string
	// Entry is the offending entry in that column.
	Entry  int
	Reason string
}

func (e *ColumnError) Error() string {
	return fmt.Sprintf("index: %s entry %d: %s", e.Column, e.Entry, e.Reason)
}

// checkOffsets checks a prefix-sum offsets column of groups+1 entries:
// from zero, never decreasing, ending at limit.
func checkOffsets(off []uint32, groups, limit int, column string) error {
	if len(off) != groups+1 || off[0] != 0 || int(off[groups]) != limit {
		return &ColumnError{column, 0, fmt.Sprintf("%d offsets do not span %d groups over [0, %d)", len(off), groups, limit)}
	}
	for i := 1; i < len(off); i++ {
		if off[i-1] > off[i] {
			return &ColumnError{column, i, "offsets decrease"}
		}
	}
	return nil
}

// checkGroup checks ords[lo:hi] is ascending ordinals of tag t's nodes.
func checkGroup(nodeTags, ords []uint32, lo, hi, t uint32, column string) error {
	for i := lo; i < hi; i++ {
		o := ords[i]
		switch {
		case int(o) >= len(nodeTags):
			return &ColumnError{column, int(i), fmt.Sprintf("ordinal %d in a %d-node document", o, len(nodeTags))}
		case i > lo && ords[i-1] >= o:
			return &ColumnError{column, int(i), "ordinals do not ascend"}
		case nodeTags[o] != t:
			return &ColumnError{column, int(i), fmt.Sprintf("node %d has tag id %d, not %d", o, nodeTags[o], t)}
		}
	}
	return nil
}
