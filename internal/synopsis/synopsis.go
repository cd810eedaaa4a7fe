// Package synopsis implements a compact structure synopsis of an XML
// corpus: an annotated strong dataguide (one trie node per distinct
// root-to-node tag path) whose annotations are rich enough to answer the
// exact per-predicate statistics the tf*idf scorer and the size-based
// router otherwise recompute with index scans for every query.
//
// For every dataguide path p and every tag t occurring below it, the
// synopsis stores per-level-difference arrays over the anchors at p
// (the document nodes whose root path is p):
//
//   - pairs[d]:     total (anchor, t-descendant) pairs at exactly d levels
//   - satExact[d]:  anchors with ≥ 1 t-descendant at exactly d levels
//   - maxExact[d]:  max per-anchor t-descendant count at exactly d levels
//   - cntMax[d]:    anchors whose deepest t-descendant is at d levels
//   - maxAtLeast[d]: max over anchors having a t-descendant at d levels
//     of their total t-descendant count at ≥ d levels
//
// These five arrays answer both forms of the paper's component
// predicates exactly (Definition 4.2/4.3 statistics):
//
//   - exact "descendant at exactly m levels": Satisfying = satExact[m],
//     TotalPairs = pairs[m], MaxTF = maxExact[m];
//   - relaxed "descendant at ≥ m levels": TotalPairs = Σ_{d≥m} pairs[d],
//     Satisfying = Σ_{d≥m} cntMax[d] (an anchor has a t-descendant at
//     ≥ m levels iff its deepest one is), MaxTF = max_{d≥m} maxAtLeast[d].
//
// The MaxTF identity holds because an anchor's suffix count
// g(m) = Σ_{d≥m} tf[d] is non-increasing in m: every stored
// maxAtLeast[d] with d ≥ m is some anchor's g(d) ≤ g(m), and the anchor
// realizing max g(m) has a descendant at its own minimal diff d* ≥ m
// where g(d*) = g(m) was recorded.
//
// The synopsis is one column layout (Flat) with two backings:
// FromColumns builds it in one pass over a document's columns, and the
// snapshot reader maps it and has Open check it. Queries read the
// columns directly.
package synopsis

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/xmltree"
)

// Synopsis is the finished, immutable structure synopsis: its columns,
// with every tag's dataguide nodes and every dataguide node's statistics
// indexed for lookup. Safe for concurrent readers.
type Synopsis struct {
	f Flat
	// tagPaths[tagAt[t]:tagAt[t+1]] are the dataguide nodes carrying
	// tag t, ascending.
	tagAt, tagPaths []int32
	// Dataguide node p's statistics are the entries descAt[p] to
	// descAt[p+1] of the Desc columns, by ascending tag.
	descAt []int32
}

// descStat is one (dataguide node, descendant tag) statistic: five
// per-level-difference arrays of one length. Index 0 is unused (a strict
// descendant is ≥ 1 level down); the arrays reach the deepest observed
// difference.
type descStat struct {
	pairs, satExact, maxExact, cntMax, maxAtLeast []int
}

// Build summarizes a whole document: the synopsis of its columns.
func Build(doc *xmltree.Document) *Synopsis { return FromColumns(doc.Columns()) }

// FromColumns builds the synopsis of the document the node columns
// describe in one preorder pass over their tag ids and parents: visiting
// a node counts it, by tag and level difference, in the frame of every
// open ancestor, and closing an anchor folds its frame into its
// dataguide node's statistics. Frames are reused by depth, and counts
// and statistics live in runs of flat arenas, moved to the arena's end
// when a deeper level difference outgrows them, so the pass allocates
// per depth and per arena growth, never per node or per dataguide node.
func FromColumns(nodes *xmltree.Columns) *Synopsis {
	b := builder{
		tagCount: make([]int, len(nodes.Tags)),
		pathOf:   make(map[uint64]int32),
		slotOf:   make(map[uint64]int32),
	}
	for i, t := range nodes.TagIDs {
		parent := int32(nodes.Parents[i]) - 1
		for b.open > 0 && b.frames[b.open-1].ord != parent {
			b.close()
		}
		b.visit(int32(i), t)
	}
	for b.open > 0 {
		b.close()
	}
	return b.finish(nodes.Tags, len(nodes.TagIDs))
}

// builder is FromColumns's state. Tags are the columns' tag ids and
// dataguide nodes are numbered first seen first until finish renumbers
// both into the Flat order.
type builder struct {
	tagCount []int // by tag id
	// pathOf maps (parent dataguide node + 1, tag) to the dataguide node.
	pathOf     map[uint64]int32
	pathParent []int32
	pathTag    []uint32
	pathCount  []int64
	// frames[:open] are the open anchors, the forest roots' first.
	frames []frame
	open   int
	// slotOf maps (dataguide node, tag) to its statistic's slot.
	slotOf map[uint64]int32
	slots  []slot
	stats  []int
}

// frame is one open anchor: its ordinal, its dataguide node, and per
// tag its descendant counts.
type frame struct {
	ord, path int32
	tags      []tagState // by tag id
	touched   []uint32   // the tags with counts
	cells     []int32
}

// tagState is one tag in a frame. The anchor's descendants with the tag
// d levels below it number cells[off+d]; the run is width cells long.
type tagState struct {
	off, width, deepest int
}

// slot is one (dataguide node, tag) statistic under construction: width
// entries from stats[off], each the five arrays' values at one level
// difference, of which the first n are kept.
type slot struct {
	path     int32
	tag      uint32
	off      int
	width, n int
}

// widen moves the run of w entries at arena[off:] to the arena's end at
// nw entries, zero past the old ones, and returns the arena and its new
// offset.
func widen[T int | int32](arena []T, off, w, nw int) ([]T, int) {
	at := len(arena)
	arena = slices.Grow(arena, nw)[:at+nw]
	clear(arena[at:])
	copy(arena[at:], arena[off:off+w])
	return arena, at
}

func (b *builder) visit(ord int32, tag uint32) {
	parent := int32(-1)
	if b.open > 0 {
		parent = b.frames[b.open-1].path
	}
	p := b.path(parent, tag)
	b.pathCount[p]++
	b.tagCount[tag]++
	for a := 0; a < b.open; a++ {
		fr := &b.frames[a]
		d := b.open - a
		ts := &fr.tags[tag]
		if d >= ts.width {
			if ts.width == 0 {
				fr.touched = append(fr.touched, tag)
			}
			nw := max(2*ts.width, d+1, 4)
			fr.cells, ts.off = widen(fr.cells, ts.off, ts.width, nw)
			ts.width = nw
		}
		fr.cells[ts.off+d]++
		ts.deepest = max(ts.deepest, d)
	}
	if b.open == len(b.frames) {
		b.frames = append(b.frames, frame{tags: make([]tagState, len(b.tagCount))})
	}
	fr := &b.frames[b.open]
	fr.ord, fr.path = ord, p
	b.open++
}

// path returns the dataguide node below parent (-1: the forest) with the
// tag, adding it when it is new.
func (b *builder) path(parent int32, tag uint32) int32 {
	key := uint64(uint32(parent+1))<<32 | uint64(tag)
	p, ok := b.pathOf[key]
	if !ok {
		p = int32(len(b.pathTag))
		b.pathOf[key] = p
		b.pathParent, b.pathTag, b.pathCount = append(b.pathParent, parent), append(b.pathTag, tag), append(b.pathCount, 0)
	}
	return p
}

// close pops the innermost open anchor, folding its counts of each
// descendant tag into its dataguide node's statistic for that tag.
func (b *builder) close() {
	b.open--
	fr := &b.frames[b.open]
	for _, t := range fr.touched {
		ts := &fr.tags[t]
		b.fold(&b.slots[b.slot(fr.path, t)], fr.cells[ts.off:ts.off+ts.deepest+1])
		ts.off, ts.width, ts.deepest = 0, 0, 0
	}
	fr.touched, fr.cells = fr.touched[:0], fr.cells[:0]
}

// slot returns the slot of the statistic of dataguide node p and the
// tag, adding it when it is new.
func (b *builder) slot(p int32, tag uint32) int32 {
	key := uint64(p)<<32 | uint64(tag)
	i, ok := b.slotOf[key]
	if !ok {
		i = int32(len(b.slots))
		b.slotOf[key] = i
		b.slots = append(b.slots, slot{path: p, tag: tag})
	}
	return i
}

// fold merges one anchor's per-difference counts of one descendant tag,
// whose last entry is its deepest and nonzero, walking in descending
// order so the ≥-suffix statistics (cntMax, maxAtLeast) come out in the
// same pass.
func (b *builder) fold(sl *slot, counts []int32) {
	n := len(counts)
	if n > sl.width {
		nw := max(2*sl.width, n)
		b.stats, sl.off = widen(b.stats, sl.off, 5*sl.width, 5*nw)
		sl.width = nw
	}
	sl.n = max(sl.n, n)
	st := b.stats[sl.off : sl.off+5*n]
	suffix := 0
	for d := n - 1; d >= 1; d-- {
		c := int(counts[d])
		suffix += c
		if c == 0 {
			continue
		}
		e := st[5*d : 5*d+5 : 5*d+5] // pairs, satExact, maxExact, cntMax, maxAtLeast
		e[0] += c
		e[1]++
		e[2] = max(e[2], c)
		e[4] = max(e[4], suffix)
	}
	st[5*(n-1)+3]++
}

// finish lays the synopsis out in the Flat order: tags sorted, dataguide
// nodes in preorder with children by tag, and each node's statistics by
// tag, their arrays cut to the deepest observed difference.
func (b *builder) finish(tags []string, nodes int) *Synopsis {
	nt, np := len(tags), len(b.pathTag)
	byName := make([]int32, nt)
	for t := range byName {
		byName[t] = int32(t)
	}
	slices.SortFunc(byName, func(x, y int32) int { return cmp.Compare(tags[x], tags[y]) })
	rank := make([]int32, nt)
	f := Flat{NodeCount: nodes, Tags: make([]string, nt), TagCount: make([]int, nt)}
	for r, t := range byName {
		rank[t], f.Tags[r], f.TagCount[r] = int32(r), tags[t], b.tagCount[t]
	}

	// byParent groups the dataguide nodes by parent, each group by tag:
	// node q's children (q = -1: the forest's) are
	// byParent[start[q+1]:start[q+2]].
	byParent := make([]int32, np)
	start := make([]int32, np+2)
	for p := range byParent {
		byParent[p] = int32(p)
		start[b.pathParent[p]+2]++
	}
	for q := 1; q < len(start); q++ {
		start[q] += start[q-1]
	}
	slices.SortFunc(byParent, func(x, y int32) int {
		return cmp.Or(cmp.Compare(b.pathParent[x], b.pathParent[y]), cmp.Compare(rank[b.pathTag[x]], rank[b.pathTag[y]]))
	})
	renum := make([]int32, np)
	f.PathParent, f.PathTag, f.PathCount = make([]int32, 0, np), make([]int32, 0, np), make([]int64, 0, np)
	var walk func(q int32)
	walk = func(q int32) {
		for _, p := range byParent[start[q+1]:start[q+2]] {
			renum[p] = int32(len(f.PathTag))
			parent := int32(-1)
			if q >= 0 {
				parent = renum[q]
			}
			f.PathParent, f.PathTag, f.PathCount = append(f.PathParent, parent), append(f.PathTag, rank[b.pathTag[p]]), append(f.PathCount, b.pathCount[p])
			walk(p)
		}
	}
	walk(-1)

	order := make([]int32, len(b.slots))
	size := 0
	for i := range order {
		order[i] = int32(i)
		size += 5 * b.slots[i].n
	}
	slices.SortFunc(order, func(x, y int32) int {
		sx, sy := &b.slots[x], &b.slots[y]
		return cmp.Or(cmp.Compare(renum[sx.path], renum[sy.path]), cmp.Compare(rank[sx.tag], rank[sy.tag]))
	})
	f.DescPath, f.DescTag, f.DescOff = make([]int32, len(order)), make([]int32, len(order)), make([]int64, len(order)+1)
	f.Arrays = make([]int, 0, size)
	for i, s := range order {
		sl := &b.slots[s]
		f.DescPath[i], f.DescTag[i] = renum[sl.path], rank[sl.tag]
		for j := 0; j < 5; j++ {
			for d := 0; d < sl.n; d++ {
				f.Arrays = append(f.Arrays, b.stats[sl.off+5*d+j])
			}
		}
		f.DescOff[i+1] = int64(len(f.Arrays))
	}
	return indexed(f)
}

// indexed wraps columns that hold the Flat invariants.
func indexed(f Flat) *Synopsis {
	s := &Synopsis{f: f,
		tagAt: make([]int32, len(f.Tags)+1), tagPaths: make([]int32, len(f.PathTag)),
		descAt: make([]int32, len(f.PathTag)+1)}
	for _, t := range f.PathTag {
		s.tagAt[t+1]++
	}
	for t := range f.Tags {
		s.tagAt[t+1] += s.tagAt[t]
	}
	fill := slices.Clone(s.tagAt[:len(f.Tags)])
	for p, t := range f.PathTag {
		s.tagPaths[fill[t]] = int32(p)
		fill[t]++
	}
	for _, p := range f.DescPath {
		s.descAt[p+1]++
	}
	for p := range f.PathTag {
		s.descAt[p+1] += s.descAt[p]
	}
	return s
}

// tag returns the synopsis id of a tag name.
func (s *Synopsis) tag(name string) (int32, bool) {
	t := sort.SearchStrings(s.f.Tags, name)
	return int32(t), t < len(s.f.Tags) && s.f.Tags[t] == name
}

// paths returns the dataguide nodes carrying tag t.
func (s *Synopsis) paths(t int32) []int32 { return s.tagPaths[s.tagAt[t]:s.tagAt[t+1]] }

// desc returns entry e of the Desc columns' five arrays.
func (s *Synopsis) desc(e int) descStat {
	lo, hi := s.f.DescOff[e], s.f.DescOff[e+1]
	l := (hi - lo) / 5
	a := s.f.Arrays[lo:hi]
	return descStat{a[:l:l], a[l : 2*l : 2*l], a[2*l : 3*l : 3*l], a[3*l : 4*l : 4*l], a[4*l:]}
}

// find returns the statistic of dataguide node p's t-descendants.
func (s *Synopsis) find(p, t int32) (descStat, bool) {
	lo, hi := s.descAt[p], s.descAt[p+1]
	i, ok := slices.BinarySearch(s.f.DescTag[lo:hi], t)
	if !ok {
		return descStat{}, false
	}
	return s.desc(int(lo) + i), true
}

// NodeCount returns the number of document nodes summarized.
func (s *Synopsis) NodeCount() int { return s.f.NodeCount }

// PathCount returns the number of distinct root-to-node tag paths.
func (s *Synopsis) PathCount() int { return len(s.f.PathTag) }

// TagCount returns the number of nodes carrying the tag.
func (s *Synopsis) TagCount(tag string) int {
	if t, ok := s.tag(tag); ok {
		return s.f.TagCount[t]
	}
	return 0
}

// WalkPaths visits every dataguide path in sorted order with its
// population count. path is reused across calls; copy to retain.
func (s *Synopsis) WalkPaths(fn func(path []string, count int)) {
	depth := make([]int, len(s.f.PathTag))
	var path []string
	for p, t := range s.f.PathTag {
		d := 0
		if q := s.f.PathParent[p]; q >= 0 {
			d = depth[q]
		}
		depth[p] = d + 1
		path = append(path[:d], s.f.Tags[t])
		fn(path, int(s.f.PathCount[p]))
	}
}

// PathStats returns the exact statistics of the component predicate "an
// anchorTag node has a tag descendant related by pp" over the whole
// corpus — the same numbers a per-root index scan produces, aggregated
// from the dataguide annotations instead.
func (s *Synopsis) PathStats(anchorTag string, pp relax.PathPredicate, tag string) index.PredicateStats {
	st := index.PredicateStats{RootCount: s.TagCount(anchorTag)}
	m := pp.MinLevels
	if m < 1 {
		// Strict descendants are ≥ 1 level down; a non-exact MinLevels
		// of 0 is the same ≥ 1 scan, and an exact 0 (self) never holds
		// for a descendant probe.
		if pp.Exact {
			return st
		}
		m = 1
	}
	a, ok := s.tag(anchorTag)
	t, ok2 := s.tag(tag)
	if !ok || !ok2 {
		return st
	}
	for _, p := range s.paths(a) {
		ds, ok := s.find(p, t)
		if !ok {
			continue
		}
		if pp.Exact {
			if m < len(ds.pairs) {
				st.Satisfying += ds.satExact[m]
				st.TotalPairs += ds.pairs[m]
				if ds.maxExact[m] > st.MaxTF {
					st.MaxTF = ds.maxExact[m]
				}
			}
			continue
		}
		for d := m; d < len(ds.pairs); d++ {
			st.Satisfying += ds.cntMax[d]
			st.TotalPairs += ds.pairs[d]
			if ds.maxAtLeast[d] > st.MaxTF {
				st.MaxTF = ds.maxAtLeast[d]
			}
		}
	}
	return st
}

// rootCount returns the number of forest roots carrying the tag.
func (s *Synopsis) rootCount(tag string) int {
	t, ok := s.tag(tag)
	if !ok {
		return 0
	}
	for _, p := range s.paths(t) {
		if s.f.PathParent[p] < 0 {
			return int(s.f.PathCount[p])
		}
	}
	return 0
}

// ComponentStats returns the exact and relaxed statistics of query
// node id's component predicate p(q0, qi), matching the tf*idf scorer's
// per-root index scan number for number. ok is false when the node
// carries a content predicate — value distributions are not
// synopsized, so the caller must fall back to scanning.
func (s *Synopsis) ComponentStats(q *pattern.Query, id int) (exact, relaxed index.PredicateStats, ok bool) {
	node := q.Nodes[id]
	rootTag := q.Root().Tag
	if id == 0 {
		// The root's predicate relates it to the virtual document root;
		// the scan counts every rootTag node regardless of content.
		total := s.TagCount(rootTag)
		sat := total
		if node.Axis == dewey.Child {
			sat = s.rootCount(rootTag)
		}
		exact = index.PredicateStats{RootCount: total, Satisfying: sat, TotalPairs: sat, MaxTF: 1}
		relaxed = index.PredicateStats{RootCount: total, Satisfying: total, TotalPairs: total, MaxTF: 1}
		return exact, relaxed, true
	}
	if !index.Test(node.ValueOp, node.Value).Any() {
		return exact, relaxed, false
	}
	exact = s.PathStats(rootTag, relax.ComposePath(q, 0, id), node.Tag)
	relaxed = s.PathStats(rootTag, relax.PathPredicate{MinLevels: 1, Exact: false}, node.Tag)
	return exact, relaxed, true
}

// Fingerprint returns a canonical hash of the full synopsis content
// (paths, counts, tag stats and all per-diff arrays, trailing zeros
// ignored), for asserting that differently-assembled synopses — built
// from the document vs. read back from a snapshot — are identical.
func (s *Synopsis) Fingerprint() string {
	f := &s.f
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d;paths=%d;", f.NodeCount, len(f.PathTag))
	for t, tag := range f.Tags {
		fmt.Fprintf(h, "tag=%s:%d;", tag, f.TagCount[t])
	}
	fmt.Fprint(h, "path=:0;")
	prefix := make([]string, len(f.PathTag))
	for p, t := range f.PathTag {
		if q := f.PathParent[p]; q >= 0 {
			prefix[p] = prefix[q]
		}
		prefix[p] += "/" + f.Tags[t]
		fmt.Fprintf(h, "path=%s:%d;", prefix[p], f.PathCount[p])
		for e := s.descAt[p]; e < s.descAt[p+1]; e++ {
			ds := s.desc(int(e))
			fmt.Fprintf(h, "desc=%s", f.Tags[f.DescTag[e]])
			writeTrimmed(h, "p", ds.pairs)
			writeTrimmed(h, "se", ds.satExact)
			writeTrimmed(h, "me", ds.maxExact)
			writeTrimmed(h, "cm", ds.cntMax)
			writeTrimmed(h, "ma", ds.maxAtLeast)
			fmt.Fprint(h, ";")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeTrimmed(h interface{ Write([]byte) (int, error) }, label string, a []int) {
	end := len(a)
	for end > 0 && a[end-1] == 0 {
		end--
	}
	fmt.Fprintf(h, "[%s", label)
	for _, v := range a[:end] {
		fmt.Fprintf(h, ",%d", v)
	}
	fmt.Fprint(h, "]")
}
