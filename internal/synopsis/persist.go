package synopsis

import "fmt"

// Flat is the column-oriented form of a Synopsis used by the snapshot
// store: every map and pointer of the trie is replaced by flat arrays so
// the structure can be serialized as fixed-width integers and, on the
// way back in, have its bulky per-level statistics alias mapped file
// pages instead of being copied onto the heap.
//
// Dataguide nodes appear in preorder with children visited in sorted tag
// order, so PathParent[i] < i always holds and Unflatten can rebuild the
// trie in one forward pass. Tag names are indices into Tags, which is
// sorted and covers every tag in the corpus (trie tags are a subset).
//
// The five per-level-difference arrays of each (path, descendant tag)
// statistic are concatenated into Arrays as five equal-length segments
// in declaration order (pairs, satExact, maxExact, cntMax, maxAtLeast).
// Entry i occupies Arrays[DescOff[i]:DescOff[i+1]]; the segment length
// is the span divided by five. Unflatten does not copy these segments —
// the rebuilt Synopsis aliases them, which is safe because a finished
// Synopsis is immutable.
type Flat struct {
	// NodeCount is the number of document nodes summarized.
	NodeCount int
	// Tags is the sorted tag table; TagCount is each tag's population.
	Tags     []string
	TagCount []int
	// PathParent/PathTag/PathCount describe the dataguide trie in
	// preorder; parent -1 is the virtual forest root.
	PathParent []int32
	PathTag    []int32
	PathCount  []int64
	// DescPath/DescTag/DescOff index the descendant statistics; see the
	// type comment for the Arrays layout.
	DescPath []int32
	DescTag  []int32
	DescOff  []int64
	Arrays   []int
}

// Flatten converts the synopsis into its column form. The returned Flat
// owns freshly allocated arrays; the synopsis is not retained.
func (s *Synopsis) Flatten() *Flat {
	tags := sortedKeys(s.tags)
	tagID := make(map[string]int32, len(tags))
	for i, t := range tags {
		tagID[t] = int32(i)
	}
	f := &Flat{
		NodeCount: s.nodes,
		Tags:      tags,
		TagCount:  make([]int, len(tags)),
		DescOff:   []int64{0},
	}
	for i, t := range tags {
		f.TagCount[i] = s.tags[t].count
	}
	var walk func(pn *pathNode, parent int32)
	walk = func(pn *pathNode, parent int32) {
		self := int32(len(f.PathTag))
		f.PathParent = append(f.PathParent, parent)
		f.PathTag = append(f.PathTag, tagID[pn.tag])
		f.PathCount = append(f.PathCount, int64(pn.count))
		for _, tag := range sortedKeys(pn.desc) {
			ds := pn.desc[tag]
			f.DescPath = append(f.DescPath, self)
			f.DescTag = append(f.DescTag, tagID[tag])
			f.Arrays = append(f.Arrays, ds.pairs...)
			f.Arrays = append(f.Arrays, ds.satExact...)
			f.Arrays = append(f.Arrays, ds.maxExact...)
			f.Arrays = append(f.Arrays, ds.cntMax...)
			f.Arrays = append(f.Arrays, ds.maxAtLeast...)
			f.DescOff = append(f.DescOff, int64(len(f.Arrays)))
		}
		for _, tag := range sortedKeys(pn.children) {
			walk(pn.children[tag], self)
		}
	}
	for _, tag := range sortedKeys(s.root.children) {
		walk(s.root.children[tag], -1)
	}
	return f
}

// Unflatten rebuilds a Synopsis from its column form. The trie and its
// maps are reconstructed on the heap, but every per-level statistics
// array aliases a segment of f.Arrays — when f.Arrays itself aliases a
// mapped snapshot, the dominant synopsis payload is served zero-copy.
// Malformed input (indices out of range, non-monotonic offsets) returns
// an error rather than panicking; the snapshot reader relies on that
// when fuzzing corrupted files.
func Unflatten(f *Flat) (*Synopsis, error) {
	if f == nil {
		return nil, fmt.Errorf("synopsis: nil flat form")
	}
	nt := int32(len(f.Tags))
	if len(f.TagCount) != int(nt) {
		return nil, fmt.Errorf("synopsis: tag columns disagree: %d tags, %d counts", nt, len(f.TagCount))
	}
	np := len(f.PathTag)
	if len(f.PathParent) != np || len(f.PathCount) != np {
		return nil, fmt.Errorf("synopsis: path columns disagree: %d tags, %d parents, %d counts",
			np, len(f.PathParent), len(f.PathCount))
	}
	nd := len(f.DescPath)
	if len(f.DescTag) != nd || len(f.DescOff) != nd+1 {
		return nil, fmt.Errorf("synopsis: desc columns disagree: %d paths, %d tags, %d offsets",
			nd, len(f.DescTag), len(f.DescOff))
	}
	s := &Synopsis{root: &pathNode{}, tags: make(map[string]*tagStat, nt), nodes: f.NodeCount}
	for i, t := range f.Tags {
		s.tags[t] = &tagStat{count: f.TagCount[i]}
	}
	nodes := make([]*pathNode, np)
	for i := 0; i < np; i++ {
		if f.PathTag[i] < 0 || f.PathTag[i] >= nt {
			return nil, fmt.Errorf("synopsis: path %d references tag %d of %d", i, f.PathTag[i], nt)
		}
		parent := s.root
		if p := f.PathParent[i]; p >= 0 {
			if int(p) >= i {
				return nil, fmt.Errorf("synopsis: path %d has forward parent %d", i, p)
			}
			parent = nodes[p]
		} else if p != -1 {
			return nil, fmt.Errorf("synopsis: path %d has invalid parent %d", i, p)
		}
		pn := &pathNode{tag: f.Tags[f.PathTag[i]], depth: parent.depth + 1, count: int(f.PathCount[i])}
		if parent.children == nil {
			parent.children = make(map[string]*pathNode)
		}
		parent.children[pn.tag] = pn
		nodes[i] = pn
	}
	for i := 0; i < nd; i++ {
		if f.DescPath[i] < 0 || int(f.DescPath[i]) >= np {
			return nil, fmt.Errorf("synopsis: desc %d references path %d of %d", i, f.DescPath[i], np)
		}
		if f.DescTag[i] < 0 || f.DescTag[i] >= nt {
			return nil, fmt.Errorf("synopsis: desc %d references tag %d of %d", i, f.DescTag[i], nt)
		}
		lo, hi := f.DescOff[i], f.DescOff[i+1]
		span := hi - lo
		if lo < 0 || hi < lo || hi > int64(len(f.Arrays)) || span%5 != 0 {
			return nil, fmt.Errorf("synopsis: desc %d has invalid array span [%d, %d) of %d", i, lo, hi, len(f.Arrays))
		}
		l := span / 5
		seg := f.Arrays[lo:hi]
		pn := nodes[f.DescPath[i]]
		if pn.desc == nil {
			pn.desc = make(map[string]*descStat)
		}
		pn.desc[f.Tags[f.DescTag[i]]] = &descStat{
			pairs:      seg[0*l : 1*l : 1*l],
			satExact:   seg[1*l : 2*l : 2*l],
			maxExact:   seg[2*l : 3*l : 3*l],
			cntMax:     seg[3*l : 4*l : 4*l],
			maxAtLeast: seg[4*l : 5*l : 5*l],
		}
	}
	s.finalize()
	return s, nil
}
