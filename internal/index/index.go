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
// Dewey encoding" (Section 6.2.1); Postings is that step, over the
// document's columns (xmltree.Columns) as the parser fills them, and
// Build runs it over the columns a document was built from. The
// index is one column layout (Columns) with two backings: Postings fills
// the columns on the heap, and store.SnapshotReader validates the same
// columns over the sections of a mapped snapshot file (Open) — the
// paper's in-memory and disk-resident scenarios (Section 6.3.3) served
// by one probe. Probes and postings are ordinals of the document's columns;
// the *xmltree.Node adapters (Document, Nodes, NodesMatching,
// AppendCandidates) build the node slab from those columns on first use.
package index

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dewey"
	"repro/internal/lru"
	"repro/internal/xmltree"
)

// Columns is the posting layout, as a WPXS snapshot stores it. Ordinals
// are preorder positions in the document's node columns.
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

// Index holds one document's postings over its node columns.
type Index struct {
	// Columns are the postings; read-only.
	Columns

	doc    *xmltree.Columns // the indexed document; every ordinal indexes it
	tagIDs map[string]uint32
	cache  *lru.Cache[postingKey, []uint32] // the filtered (tag, value test) postings

	slabOnce sync.Once
	slab     *xmltree.Document // the node slab of doc, built on first use (Document)
}

// postingKey identifies one cached posting; the value comes from the
// request, so the cache it keys is bounded.
type postingKey struct{ tag, op, value string }

// Build indexes doc on the heap: the postings of its columns, with doc
// as the node slab the *Node adapters hand out.
func Build(doc *xmltree.Document) *Index {
	c := doc.Columns()
	return New(c, Postings(c), doc)
}

// Postings computes the posting columns of the document the node
// columns describe, keeping their tag table: the ordinals counting-sorted
// by tag id, and the valued nodes' (tag id, value) keys, numbered first
// seen first, sorted by tag id, then value, with the ordinals
// counting-sorted by key. Keys alias nodes.Values.
func Postings(nodes *xmltree.Columns) Columns {
	const unvalued = ^uint32(0)
	type key struct {
		value string
		id    uint32 // first seen first
	}
	var (
		c      = Columns{Tags: nodes.Tags}
		n      = len(nodes.TagIDs)
		keyIDs = make([]map[string]uint32, len(c.Tags)) // per tag id: value → key
		keys   = make([][]key, len(c.Tags))             // per tag id
		count  []uint32                                 // per key: its node count, then its fill position
		keyed  = make([]uint32, n)                      // per node: its key, or unvalued
	)

	// Tag postings.
	c.TagOff = make([]uint32, len(c.Tags)+1)
	for _, t := range nodes.TagIDs {
		c.TagOff[t+1]++
	}
	for t := range c.Tags {
		c.TagOff[t+1] += c.TagOff[t]
	}
	c.TagOrds = make([]uint32, n)
	fill := slices.Clone(c.TagOff[:len(c.Tags)])
	for i, t := range nodes.TagIDs {
		c.TagOrds[fill[t]] = uint32(i)
		fill[t]++
	}

	// Value postings.
	for i, t := range nodes.TagIDs {
		lo, hi := nodes.ValueLo[i], nodes.ValueHi[i]
		if lo == hi {
			keyed[i] = unvalued
			continue
		}
		m := keyIDs[t]
		if m == nil {
			m = make(map[string]uint32)
			keyIDs[t] = m
		}
		v := nodes.Values[lo:hi]
		k, ok := m[v]
		if !ok {
			k = uint32(len(count))
			m[v] = k
			keys[t], count = append(keys[t], key{v, k}), append(count, 0)
		}
		count[k]++
		keyed[i] = k
	}
	c.KeyTags = make([]uint32, len(count))
	c.Keys = make([]string, len(count))
	c.KeyOff = make([]uint32, len(count)+1)
	var i, pos uint32
	for t, g := range keys {
		slices.SortFunc(g, func(a, b key) int { return strings.Compare(a.value, b.value) })
		for _, k := range g {
			c.KeyTags[i], c.Keys[i], c.KeyOff[i] = uint32(t), k.value, pos
			pos, count[k.id] = pos+count[k.id], pos
			i++
		}
	}
	c.KeyOff[i] = pos
	c.KeyOrds = make([]uint32, pos)
	for o, k := range keyed {
		if k != unvalued {
			c.KeyOrds[count[k]] = uint32(o)
			count[k]++
		}
	}
	return c
}

// New wraps the postings Postings computed over the document columns
// doc. slab is doc's node slab when the caller has one, or nil to build
// it on first use (Document).
func New(doc *xmltree.Columns, c Columns, slab *xmltree.Document) *Index {
	tagIDs := make(map[string]uint32, len(c.Tags))
	for t, tag := range c.Tags {
		tagIDs[tag] = uint32(t)
	}
	return newIndex(doc, c, tagIDs, slab)
}

func newIndex(doc *xmltree.Columns, c Columns, tagIDs map[string]uint32, slab *xmltree.Document) *Index {
	return &Index{Columns: c, doc: doc, tagIDs: tagIDs, slab: slab,
		cache: lru.New[postingKey, []uint32](lru.PostingsCap)}
}

// Cols returns the indexed document's columns.
func (ix *Index) Cols() *xmltree.Columns { return ix.doc }

// Document returns the document's node slab, building it from the
// columns on the first call. Only the *Node adapters (Nodes,
// NodesMatching, AppendCandidates) and callers that walk nodes ask for
// it; nothing that serves a query does.
func (ix *Index) Document() *xmltree.Document {
	ix.slabOnce.Do(func() {
		if ix.slab == nil {
			ix.slab = ix.doc.Build()
		}
	})
	return ix.slab
}

// Probe is a (tag, value test) resolved against one index: the
// ascending ordinals of the tag nodes that satisfy the test. Resolve
// once, then Append per anchor.
type Probe struct {
	doc  *xmltree.Columns
	tag  uint32
	has  bool // the tag occurs in the document
	vt   ValueTest
	ords []uint32
}

// Probe resolves (tag, vt): the tag postings for a match-any test, the
// key's postings for an equality, and for any other test the tag
// postings filtered once and kept in a bounded cache.
func (ix *Index) Probe(tag string, vt ValueTest) Probe {
	t, has := ix.tagIDs[tag]
	return Probe{doc: ix.doc, tag: t, has: has, vt: vt, ords: ix.ords(t, has, tag, vt)}
}

// Ords returns the probe's ordinals, ascending: the postings its Append
// scans. The slice is shared; callers must not modify it.
func (p *Probe) Ords() []uint32 { return p.ords }

// Has reports whether node ord carries the probe's tag and satisfies its
// value test.
func (p *Probe) Has(ord int32) bool {
	return p.has && p.doc.TagIDs[ord] == p.tag && (p.vt.Any() || p.vt.Matches(p.doc.Value(ord)))
}

// Append appends the probe's ordinals on the given axis of anchor to dst
// in document order. Supported axes are Self, Child and Descendant — the
// axes structural probes use after Algorithm 1's composition to the
// query root. Both structural axes walk the probe's ordinals from the
// first past anchor while they stay inside its interval; a Child scan
// keeps those one level below it. Scanning the postings reads them in
// sequence, where stepping from child to child over subtree sizes would
// wait on one load per child.
//
// hint is where a structural scan starts looking for its first ordinal,
// an index into Ords: the start an earlier Append returned, for a caller
// whose anchors mostly ascend, or 0 for none. Append returns the start
// it found (hint itself on the Self axis), galloping forward from hint;
// no hint, or an anchor before Ords()[hint-1], takes a binary search.
func (p *Probe) Append(dst []int32, anchor int32, axis dewey.Axis, hint int) ([]int32, int) {
	switch axis {
	case dewey.Self:
		if p.Has(anchor) {
			dst = append(dst, anchor)
		}
	case dewey.Child, dewey.Descendant:
		g, end := p.ords, uint32(p.doc.End(anchor))
		child, level := axis == dewey.Child, p.doc.Level[anchor]+1
		if hint == 0 || hint > len(g) || g[hint-1] > uint32(anchor) {
			hint = firstAfter(g, uint32(anchor))
		} else {
			hint = Gallop(g, hint, uint32(anchor))
		}
		for i := hint; i < len(g) && g[i] <= end; i++ {
			if !child || p.doc.Level[g[i]] == level {
				dst = append(dst, int32(g[i]))
			}
		}
	}
	return dst, hint
}

// Ords returns the ordinals of the tag nodes whose values satisfy vt,
// ascending: a posting group, or for a test the postings cannot answer
// the tag's group filtered once and kept in a bounded cache. The
// returned slice is shared; callers must not modify it.
func (ix *Index) Ords(tag string, vt ValueTest) []uint32 {
	t, has := ix.tagIDs[tag]
	return ix.ords(t, has, tag, vt)
}

// ords is Ords for tag's id t, has false when the tag does not occur.
func (ix *Index) ords(t uint32, has bool, tag string, vt ValueTest) []uint32 {
	g, filter := ix.group(t, has, vt)
	if filter {
		g = ix.filtered(t, tag, vt)
	}
	return g
}

// AppendCandidates is Probe.Append over the node slab: it resolves
// (tag, vt), scans anchor's axis as the engine does, and appends the
// nodes at the ordinals found to dst.
func (ix *Index) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node {
	p, nodes := ix.Probe(tag, vt), ix.Document().Nodes
	var buf [64]int32 // the scan's ordinals; a longer scan moves to the heap
	ords, _ := p.Append(buf[:0], anchor.Ord, axis, 0)
	for _, o := range ords {
		dst = append(dst, nodes[o])
	}
	return dst
}

// Nodes returns all nodes with the given tag in document order.
func (ix *Index) Nodes(tag string) []*xmltree.Node { return ix.NodesMatching(tag, ValueTest{}) }

// NodesMatching returns the nodes with the given tag whose values
// satisfy vt, in document order: Ords over the node slab.
func (ix *Index) NodesMatching(tag string, vt ValueTest) []*xmltree.Node {
	return nodesAt(ix.Document(), ix.Ords(tag, vt))
}

// nodesAt returns the nodes of doc at the given ordinals.
func nodesAt(doc *xmltree.Document, ords []uint32) []*xmltree.Node {
	out := make([]*xmltree.Node, len(ords))
	for i, o := range ords {
		out[i] = doc.Nodes[o]
	}
	return out
}

// group returns the column group holding every tag node that can
// satisfy vt — the key's postings for an equality, the tag's otherwise —
// and whether vt must still filter it.
func (ix *Index) group(t uint32, has bool, vt ValueTest) (g []uint32, filter bool) {
	switch {
	case !has:
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

// filtered returns the tag's postings filtered by vt from the cache,
// filtering them on a miss: only the first probe of a (tag, predicate)
// pair allocates, and steady-state hits are allocation-free.
func (ix *Index) filtered(t uint32, tag string, vt ValueTest) []uint32 {
	// hit and err dropped: only a miss builds, and the build cannot fail
	ords, _, _ := ix.cache.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]uint32, error) {
		g, _ := ix.group(t, true, vt)
		var ords []uint32
		for _, o := range g {
			if vt.Matches(ix.doc.Value(int32(o))) {
				ords = append(ords, o)
			}
		}
		return ords, nil
	})
	return ords
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

// Gallop returns the index of g's first element above x, given that
// none before i is: steps doubling from i bracket it and a binary search
// finds it, O(log) of the distance moved.
func Gallop(g []uint32, i int, x uint32) int {
	step := 1
	for i+step <= len(g) && g[i+step-1] <= x {
		i += step
		step <<= 1
	}
	return i + firstAfter(g[i:min(i+step, len(g))], x)
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

// Open wraps posting columns read from storage over doc, the node
// columns they index, once they hold every invariant the probe relies
// on; a *ColumnError names the first column that does not.
func Open(doc *xmltree.Columns, c Columns) (*Index, error) {
	nodeTags, nodes := doc.TagIDs, doc.Len()
	tagIDs := make(map[string]uint32, len(c.Tags))
	for t, tag := range c.Tags {
		if _, dup := tagIDs[tag]; dup {
			return nil, &ColumnError{"Tags", t, fmt.Sprintf("tag %q appears twice", tag)}
		}
		tagIDs[tag] = uint32(t)
	}
	if err := checkOffsets(c.TagOff, len(c.Tags), nodes, "TagOff"); err != nil {
		return nil, err
	}
	if len(c.TagOrds) != nodes {
		return nil, &ColumnError{"TagOrds", len(c.TagOrds), fmt.Sprintf("%d tag postings for %d nodes", len(c.TagOrds), nodes)}
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
	return newIndex(doc, c, tagIDs, nil), nil
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
