package synopsis

import (
	"math/rand"
	"testing"

	"repro/internal/relax"
)

// TestFlattenRoundTrip checks that Flatten → Unflatten reproduces the
// synopsis exactly, fingerprint for fingerprint, on XMark and on random
// documents with heavy tag reuse.
func TestFlattenRoundTrip(t *testing.T) {
	for name, doc := range testDocs(t) {
		s := Build(doc)
		got, err := Unflatten(s.Flatten())
		if err != nil {
			t.Fatalf("%s: Unflatten: %v", name, err)
		}
		if got.Fingerprint() != s.Fingerprint() {
			t.Errorf("%s: fingerprint mismatch after round trip", name)
		}
		if got.NodeCount() != s.NodeCount() || got.PathCount() != s.PathCount() {
			t.Errorf("%s: counts diverge: nodes %d vs %d, paths %d vs %d",
				name, got.NodeCount(), s.NodeCount(), got.PathCount(), s.PathCount())
		}
	}
}

// TestUnflattenAnswersMatch checks the rebuilt synopsis answers the same
// statistics queries as the original.
func TestUnflattenAnswersMatch(t *testing.T) {
	doc := xmarkDoc(t, 80)
	s := Build(doc)
	got, err := Unflatten(s.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	tags := doc.Tags()
	for i := 0; i < 200; i++ {
		anchor := tags[r.Intn(len(tags))]
		tag := tags[r.Intn(len(tags))]
		pp := relax.PathPredicate{MinLevels: r.Intn(4), Exact: r.Intn(2) == 0}
		if a, b := s.PathStats(anchor, pp, tag), got.PathStats(anchor, pp, tag); a != b {
			t.Fatalf("PathStats(%s, %+v, %s) diverges: %+v vs %+v", anchor, pp, tag, a, b)
		}
		if a, b := s.TagCount(tag), got.TagCount(tag); a != b {
			t.Fatalf("TagCount(%s): %d vs %d", tag, a, b)
		}
	}
}

// TestUnflattenRejectsMalformed checks corrupted column data errors
// instead of panicking.
func TestUnflattenRejectsMalformed(t *testing.T) {
	doc := xmarkDoc(t, 20)
	base := Build(doc).Flatten()
	mutate := map[string]func(f *Flat){
		"nil":            nil,
		"forward-parent": func(f *Flat) { f.PathParent[len(f.PathParent)-1] = int32(len(f.PathParent)) },
		"bad-parent":     func(f *Flat) { f.PathParent[0] = -7 },
		"bad-path-tag":   func(f *Flat) { f.PathTag[0] = int32(len(f.Tags)) },
		"bad-desc-path":  func(f *Flat) { f.DescPath[0] = -1 },
		"bad-desc-tag":   func(f *Flat) { f.DescTag[0] = int32(len(f.Tags)) },
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
		if _, err := Unflatten(f); err == nil {
			t.Errorf("%s: corrupted flat form unflattened without error", name)
		}
	}
}
