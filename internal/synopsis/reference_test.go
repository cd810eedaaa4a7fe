package synopsis

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/xmltree"
)

// referenceFlat is the synopsis built the way it was before the flat
// builder: a trie of string-keyed maps filled by recursion over the node
// slab, one frame of per-tag counters per open ancestor, laid out in the
// Flat order at the end. FromColumns must lay out the same columns.
func referenceFlat(doc *xmltree.Document) *Flat {
	type stat struct{ arrays [5][]int } // pairs, satExact, maxExact, cntMax, maxAtLeast
	type node struct {
		tag      string
		count    int
		children map[string]*node
		desc     map[string]*stat
	}
	root := &node{children: map[string]*node{}}
	tagCount := map[string]int{}
	var frames []map[string][]int // frames[d]: the open ancestor at depth d
	var add func(n *xmltree.Node, parent *node, depth int)
	add = func(n *xmltree.Node, parent *node, depth int) {
		pn := parent.children[n.Tag]
		if pn == nil {
			pn = &node{tag: n.Tag, children: map[string]*node{}, desc: map[string]*stat{}}
			parent.children[n.Tag] = pn
		}
		pn.count++
		tagCount[n.Tag]++
		for a, fr := range frames[:depth] {
			arr := fr[n.Tag]
			for len(arr) <= depth-a {
				arr = append(arr, 0)
			}
			arr[depth-a]++
			fr[n.Tag] = arr
		}
		if depth == len(frames) {
			frames = append(frames, nil)
		}
		frames[depth] = map[string][]int{}
		for _, c := range n.Children {
			add(c, pn, depth+1)
		}
		for tag, arr := range frames[depth] {
			ds := pn.desc[tag]
			if ds == nil {
				ds = &stat{}
				pn.desc[tag] = ds
			}
			for k := range ds.arrays {
				for len(ds.arrays[k]) < len(arr) {
					ds.arrays[k] = append(ds.arrays[k], 0)
				}
			}
			suffix := 0
			for d := len(arr) - 1; d >= 1; d-- {
				suffix += arr[d]
				if arr[d] > 0 {
					ds.arrays[0][d] += arr[d]
					ds.arrays[1][d]++
					ds.arrays[2][d] = max(ds.arrays[2][d], arr[d])
					ds.arrays[4][d] = max(ds.arrays[4][d], suffix)
				}
			}
			ds.arrays[3][len(arr)-1]++
		}
	}
	for _, r := range doc.Roots {
		add(r, root, 0)
	}

	f := &Flat{NodeCount: len(doc.Nodes), Tags: sortedKeys(tagCount), DescOff: []int64{0}}
	id := map[string]int32{}
	for i, t := range f.Tags {
		id[t] = int32(i)
		f.TagCount = append(f.TagCount, tagCount[t])
	}
	var walk func(pn *node, parent int32)
	walk = func(pn *node, parent int32) {
		self := int32(len(f.PathTag))
		if pn != root {
			f.PathParent, f.PathTag, f.PathCount = append(f.PathParent, parent), append(f.PathTag, id[pn.tag]), append(f.PathCount, int64(pn.count))
			for _, t := range sortedKeys(pn.desc) {
				f.DescPath, f.DescTag = append(f.DescPath, self), append(f.DescTag, id[t])
				for _, a := range pn.desc[t].arrays {
					f.Arrays = append(f.Arrays, a...)
				}
				f.DescOff = append(f.DescOff, int64(len(f.Arrays)))
			}
		} else {
			self = -1
		}
		for _, t := range sortedKeys(pn.children) {
			walk(pn.children[t], self)
		}
	}
	walk(root, -1)
	return f
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBuildMatchesReference holds the flat builder to the trie builder
// it replaced, column for column, on XMark and on random documents with
// heavy tag reuse.
func TestBuildMatchesReference(t *testing.T) {
	for name, doc := range testDocs(t) {
		got, want := Build(doc).Flatten(), referenceFlat(doc)
		if len(got.DescPath) == 0 { // an empty column equals a nil one
			got.DescPath, got.DescTag, got.Arrays = nil, nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flat builder lays out %+v, the reference %+v", name, got, want)
		}
	}
}
