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
// The synopsis is built in one pass over the document (Build).
package synopsis

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/xmltree"
)

// descStat holds the per-level-difference arrays for one (path,
// descendant tag) pair. Index 0 is unused (a strict descendant is ≥ 1
// level down); arrays are as long as the deepest observed difference.
type descStat struct {
	pairs      []int
	satExact   []int
	maxExact   []int
	cntMax     []int
	maxAtLeast []int
}

func (ds *descStat) grow(n int) {
	if len(ds.pairs) >= n {
		return
	}
	ds.pairs = growInts(ds.pairs, n)
	ds.satExact = growInts(ds.satExact, n)
	ds.maxExact = growInts(ds.maxExact, n)
	ds.cntMax = growInts(ds.cntMax, n)
	ds.maxAtLeast = growInts(ds.maxAtLeast, n)
}

func growInts(a []int, n int) []int {
	if cap(a) >= n {
		return a[:n]
	}
	b := make([]int, n)
	copy(b, a)
	return b
}

// pathNode is one strong-dataguide node: a distinct root-to-node tag
// path, its population count, and the descendant statistics of its
// anchors.
type pathNode struct {
	tag      string
	depth    int // forest roots are depth 1
	count    int // document nodes with exactly this root path
	children map[string]*pathNode
	desc     map[string]*descStat
}

func (pn *pathNode) child(tag string, create bool) *pathNode {
	if c, ok := pn.children[tag]; ok {
		return c
	}
	if !create {
		return nil
	}
	if pn.children == nil {
		pn.children = make(map[string]*pathNode)
	}
	c := &pathNode{tag: tag, depth: pn.depth + 1}
	pn.children[tag] = c
	return c
}

func (pn *pathNode) descFor(tag string) *descStat {
	if ds, ok := pn.desc[tag]; ok {
		return ds
	}
	if pn.desc == nil {
		pn.desc = make(map[string]*descStat)
	}
	ds := &descStat{}
	pn.desc[tag] = ds
	return ds
}

// tagStat aggregates one tag across the corpus.
type tagStat struct {
	count int // all nodes with the tag
}

// Synopsis is the finished, immutable structure synopsis. Safe for
// concurrent readers after Build returns.
type Synopsis struct {
	root  *pathNode // virtual forest root, depth 0
	tags  map[string]*tagStat
	byTag map[string][]*pathNode // every dataguide node carrying the tag
	nodes int
	paths int
}

// Build constructs the synopsis of a whole document in one preorder
// pass: visiting a node increments the (tag, level-difference) counter
// of every open ancestor frame, and popping a frame folds that single
// anchor's counts into its dataguide node's arrays. Frames are reused by
// depth and index their counters by a build-local tag id, so the pass
// allocates per distinct depth, tag and path, never per node.
func Build(doc *xmltree.Document) *Synopsis {
	b := &builder{
		s:   &Synopsis{root: &pathNode{}, tags: make(map[string]*tagStat)},
		ids: make(map[string]int32),
	}
	for _, r := range doc.Roots {
		b.add(r, b.s.root, 0)
	}
	b.s.finalize()
	return b.s
}

// builder is Build's state.
type builder struct {
	s      *Synopsis
	ids    map[string]int32 // build-local tag id
	tags   []string         // by build-local id
	stats  []*tagStat       // by build-local id
	frames []*frame         // frames[d]: the open ancestor at depth d, forest roots at 0
}

// frame holds one open anchor's descendant counts: tf[id][d] descendants
// with build-local tag id lie d levels below it. A frame is empty
// whenever no anchor holds it.
type frame struct {
	tf      [][]int
	touched []int32 // the ids with a nonempty tf entry
}

func (b *builder) add(n *xmltree.Node, parent *pathNode, depth int) {
	id, ok := b.ids[n.Tag]
	if !ok {
		id = int32(len(b.tags))
		b.ids[n.Tag] = id
		b.tags = append(b.tags, n.Tag)
		b.stats = append(b.stats, &tagStat{})
		b.s.tags[n.Tag] = b.stats[id]
	}
	pn := parent.child(n.Tag, true)
	pn.count++
	b.stats[id].count++
	b.s.nodes++
	for a, fr := range b.frames[:depth] {
		for len(fr.tf) <= int(id) {
			fr.tf = append(fr.tf, nil)
		}
		arr := fr.tf[id]
		if len(arr) == 0 {
			fr.touched = append(fr.touched, id)
		}
		d := depth - a
		for len(arr) <= d {
			arr = append(arr, 0)
		}
		arr[d]++
		fr.tf[id] = arr
	}
	if depth == len(b.frames) {
		b.frames = append(b.frames, &frame{})
	}
	for _, c := range n.Children {
		b.add(c, pn, depth+1)
	}
	fr := b.frames[depth]
	for _, t := range fr.touched {
		fold(pn.descFor(b.tags[t]), fr.tf[t])
		fr.tf[t] = fr.tf[t][:0]
	}
	fr.touched = fr.touched[:0]
}

// fold merges one anchor's per-diff counts of one descendant tag into
// its dataguide node's arrays, walking in descending-diff order so the
// ≥-suffix statistics (cntMax, maxAtLeast) come out in the same pass.
func fold(ds *descStat, arr []int) {
	ds.grow(len(arr))
	suffix := 0
	maxd := 0
	for d := len(arr) - 1; d >= 1; d-- {
		c := arr[d]
		suffix += c
		if c == 0 {
			continue
		}
		if maxd == 0 {
			maxd = d
		}
		ds.pairs[d] += c
		ds.satExact[d]++
		if c > ds.maxExact[d] {
			ds.maxExact[d] = c
		}
		if suffix > ds.maxAtLeast[d] {
			ds.maxAtLeast[d] = suffix
		}
	}
	if maxd > 0 {
		ds.cntMax[maxd]++
	}
}

// finalize computes the derived per-tag dataguide-node index.
func (s *Synopsis) finalize() {
	s.byTag = make(map[string][]*pathNode)
	s.paths = 0
	var walk func(pn *pathNode)
	walk = func(pn *pathNode) {
		if pn.depth > 0 {
			s.paths++
			s.byTag[pn.tag] = append(s.byTag[pn.tag], pn)
		}
		for _, tag := range sortedKeys(pn.children) {
			walk(pn.children[tag])
		}
	}
	walk(s.root)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NodeCount returns the number of document nodes summarized.
func (s *Synopsis) NodeCount() int { return s.nodes }

// PathCount returns the number of distinct root-to-node tag paths.
func (s *Synopsis) PathCount() int { return s.paths }

// TagCount returns the number of nodes carrying the tag.
func (s *Synopsis) TagCount(tag string) int {
	if ts, ok := s.tags[tag]; ok {
		return ts.count
	}
	return 0
}

// WalkPaths visits every dataguide path in sorted order with its
// population count. path is reused across calls; copy to retain.
func (s *Synopsis) WalkPaths(fn func(path []string, count int)) {
	var path []string
	var walk func(pn *pathNode)
	walk = func(pn *pathNode) {
		if pn.depth > 0 {
			path = append(path, pn.tag)
			fn(path, pn.count)
		}
		for _, tag := range sortedKeys(pn.children) {
			walk(pn.children[tag])
		}
		if pn.depth > 0 {
			path = path[:len(path)-1]
		}
	}
	walk(s.root)
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
	for _, pn := range s.byTag[anchorTag] {
		ds, ok := pn.desc[tag]
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
			if pn := s.root.child(rootTag, false); pn != nil {
				sat = pn.count
			} else {
				sat = 0
			}
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
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d;paths=%d;", s.nodes, s.paths)
	for _, tag := range sortedKeys(s.tags) {
		fmt.Fprintf(h, "tag=%s:%d;", tag, s.tags[tag].count)
	}
	var walk func(pn *pathNode, prefix string)
	walk = func(pn *pathNode, prefix string) {
		fmt.Fprintf(h, "path=%s:%d;", prefix, pn.count)
		for _, tag := range sortedKeys(pn.desc) {
			ds := pn.desc[tag]
			fmt.Fprintf(h, "desc=%s", tag)
			writeTrimmed(h, "p", ds.pairs)
			writeTrimmed(h, "se", ds.satExact)
			writeTrimmed(h, "me", ds.maxExact)
			writeTrimmed(h, "cm", ds.cntMax)
			writeTrimmed(h, "ma", ds.maxAtLeast)
			fmt.Fprint(h, ";")
		}
		for _, tag := range sortedKeys(pn.children) {
			walk(pn.children[tag], prefix+"/"+tag)
		}
	}
	walk(s.root, "")
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
