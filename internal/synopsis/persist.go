package synopsis

import "fmt"

// Flat is the synopsis's column layout, as the snapshot store writes
// it and maps it back: every statistic is a fixed-width integer, so a
// mapped snapshot serves the bulky per-level arrays from its pages.
//
// Tags is sorted and covers every tag in the corpus; tag names
// elsewhere are indices into it. Dataguide nodes appear in preorder with
// children in tag order, so PathParent[i] < i, and each node's
// statistics are grouped in DescPath order by ascending tag.
//
// The five per-level-difference arrays of each (path, descendant tag)
// statistic are concatenated into Arrays as five equal-length segments
// in declaration order (pairs, satExact, maxExact, cntMax, maxAtLeast).
// Entry i occupies Arrays[DescOff[i]:DescOff[i+1]]; the segment length
// is the span divided by five, and reaches the deepest difference at
// which the tag occurs below the path.
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

// Flatten returns the synopsis's columns, as the snapshot stores them.
// The arrays are the synopsis's own: read-only.
func (s *Synopsis) Flatten() *Flat {
	f := s.f
	return &f
}

// Open checks columns read from storage against every invariant the
// queries rely on and wraps them, aliasing f's arrays: when they alias a
// mapped snapshot, the synopsis is served from its pages. Malformed
// columns are an error, never a panic; the snapshot reader relies on
// that when fuzzing corrupted files.
func Open(f *Flat) (*Synopsis, error) {
	if f == nil {
		return nil, fmt.Errorf("synopsis: nil flat form")
	}
	nt := int32(len(f.Tags))
	if len(f.TagCount) != int(nt) {
		return nil, fmt.Errorf("synopsis: tag columns disagree: %d tags, %d counts", nt, len(f.TagCount))
	}
	for t := 1; t < len(f.Tags); t++ {
		if f.Tags[t-1] >= f.Tags[t] {
			return nil, fmt.Errorf("synopsis: tag %d is not sorted after tag %d", t, t-1)
		}
	}
	np := len(f.PathTag)
	if len(f.PathParent) != np || len(f.PathCount) != np {
		return nil, fmt.Errorf("synopsis: path columns disagree: %d tags, %d parents, %d counts",
			np, len(f.PathParent), len(f.PathCount))
	}
	var open []int32 // the open ancestors of the path being checked
	for i := 0; i < np; i++ {
		if f.PathTag[i] < 0 || f.PathTag[i] >= nt {
			return nil, fmt.Errorf("synopsis: path %d references tag %d of %d", i, f.PathTag[i], nt)
		}
		p := f.PathParent[i]
		if p < -1 || int(p) >= i {
			return nil, fmt.Errorf("synopsis: path %d has invalid parent %d", i, p)
		}
		for len(open) > 0 && open[len(open)-1] != p {
			open = open[:len(open)-1]
		}
		if p >= 0 && len(open) == 0 {
			return nil, fmt.Errorf("synopsis: path %d's parent %d is not an ancestor of path %d: not in preorder", i, p, i-1)
		}
		open = append(open, int32(i))
	}
	nd := len(f.DescPath)
	if len(f.DescTag) != nd || len(f.DescOff) != nd+1 {
		return nil, fmt.Errorf("synopsis: desc columns disagree: %d paths, %d tags, %d offsets",
			nd, len(f.DescTag), len(f.DescOff))
	}
	for i := 0; i < nd; i++ {
		if f.DescPath[i] < 0 || int(f.DescPath[i]) >= np {
			return nil, fmt.Errorf("synopsis: desc %d references path %d of %d", i, f.DescPath[i], np)
		}
		if f.DescTag[i] < 0 || f.DescTag[i] >= nt {
			return nil, fmt.Errorf("synopsis: desc %d references tag %d of %d", i, f.DescTag[i], nt)
		}
		if i > 0 && (f.DescPath[i-1] > f.DescPath[i] || f.DescPath[i-1] == f.DescPath[i] && f.DescTag[i-1] >= f.DescTag[i]) {
			return nil, fmt.Errorf("synopsis: desc %d is not sorted by path, then tag", i)
		}
		lo, hi := f.DescOff[i], f.DescOff[i+1]
		span := hi - lo
		if lo < 0 || hi < lo || hi > int64(len(f.Arrays)) || span%5 != 0 {
			return nil, fmt.Errorf("synopsis: desc %d has invalid array span [%d, %d) of %d", i, lo, hi, len(f.Arrays))
		}
	}
	return indexed(*f), nil
}
