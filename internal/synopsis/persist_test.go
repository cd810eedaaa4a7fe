package synopsis

import "testing"

// TestOpenAcceptsBuild checks that Open accepts the columns Build lays
// out, on XMark and on random documents with heavy tag reuse. That the
// columns survive the snapshot bytes is the store's TestSnapshotSynopsis.
func TestOpenAcceptsBuild(t *testing.T) {
	for name, doc := range testDocs(t) {
		if _, err := Open(Build(doc).Flatten()); err != nil {
			t.Errorf("%s: Open: %v", name, err)
		}
	}
}

// TestOpenRejectsMalformed checks corrupted column data errors
// instead of panicking.
func TestOpenRejectsMalformed(t *testing.T) {
	doc := xmarkDoc(t, 20)
	base := Build(doc).Flatten()
	mutate := map[string]func(f *Flat){
		"nil":            nil,
		"forward-parent": func(f *Flat) { f.PathParent[len(f.PathParent)-1] = int32(len(f.PathParent)) },
		"bad-parent":     func(f *Flat) { f.PathParent[0] = -7 },
		"not-preorder":   func(f *Flat) { f.PathParent[len(f.PathParent)-1] = 1 },
		"bad-path-tag":   func(f *Flat) { f.PathTag[0] = int32(len(f.Tags)) },
		"unsorted-tags":  func(f *Flat) { f.Tags[0], f.Tags[1] = f.Tags[1], f.Tags[0] },
		"bad-desc-path":  func(f *Flat) { f.DescPath[0] = -1 },
		"bad-desc-tag":   func(f *Flat) { f.DescTag[0] = int32(len(f.Tags)) },
		"unsorted-desc":  func(f *Flat) { f.DescTag[0], f.DescTag[1] = f.DescTag[1], f.DescTag[0] },
		"bad-offsets":    func(f *Flat) { f.DescOff[1] = f.DescOff[0] + 3 },
		"offset-overrun": func(f *Flat) { f.DescOff[len(f.DescOff)-1] = int64(len(f.Arrays)) + 5 },
		"short-tags":     func(f *Flat) { f.TagCount = f.TagCount[:1] },
		"short-paths":    func(f *Flat) { f.PathCount = f.PathCount[:1] },
		"short-desc":     func(f *Flat) { f.DescTag = f.DescTag[:1] },
	}
	for name, fn := range mutate {
		var f *Flat
		if fn != nil {
			clone := *base
			clone.Tags = append([]string(nil), base.Tags...)
			clone.PathParent = append([]int32(nil), base.PathParent...)
			clone.PathTag = append([]int32(nil), base.PathTag...)
			clone.PathCount = append([]int64(nil), base.PathCount...)
			clone.DescPath = append([]int32(nil), base.DescPath...)
			clone.DescTag = append([]int32(nil), base.DescTag...)
			clone.DescOff = append([]int64(nil), base.DescOff...)
			clone.TagCount = append([]int(nil), base.TagCount...)
			fn(&clone)
			f = &clone
		}
		if _, err := Open(f); err == nil {
			t.Errorf("%s: corrupted flat form opened without error", name)
		}
	}
}
