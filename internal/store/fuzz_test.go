package store

import (
	"bytes"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// FuzzSnapshotV2Corruption feeds arbitrary and mutated-valid bytes to
// the WPXS decoder — the only binary decoder in the tree. Truncations, flipped bytes, bad magic,
// versions and checksums must all surface as errors — never a panic —
// and anything the decoder does accept must serve structurally
// consistent candidates.
func FuzzSnapshotV2Corruption(f *testing.F) {
	for _, xml := range []string{
		`<a/>`,
		`<a><b>x</b><b>y</b></a>`,
		`<site><item id="1"><name>gold</name><desc>aa bb</desc></item></site>`,
	} {
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			f.Fatal(err)
		}
		snap := &Snapshot{Doc: doc, Synopsis: synopsis.Build(doc).Flatten()}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		raw := buf.Bytes()
		for _, off := range []int{0, 4, 12, 24, 28, headerSize + 8, len(raw) / 2, len(raw) - 1} {
			mutated := append([]byte{}, raw...)
			mutated[off] ^= 0x01
			f.Add(mutated)
		}
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:headerSize])
	}
	f.Add([]byte{})
	f.Add([]byte("WPXS"))
	f.Add([]byte("WPX1"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := ParseSnapshot(raw)
		if err != nil {
			return
		}
		doc := r.Doc
		for i, n := range doc.Nodes {
			if int(n.Ord) != i {
				t.Fatalf("ordinal mismatch at %d", i)
			}
			if n.Parent != nil && int(n.Parent.Ord) >= i {
				t.Fatalf("parent after child at %d", i)
			}
		}
		for _, tag := range r.Tags {
			for _, n := range r.Nodes(tag) {
				if n.Tag != tag {
					t.Fatalf("Nodes(%q) holds a %q node", tag, n.Tag)
				}
			}
			for _, root := range doc.Roots {
				_ = r.AppendCandidates(nil, root, dewey.Descendant, tag, index.Test("contains", "a"))
				_ = r.AppendCandidates(nil, root, dewey.Descendant, tag, index.ValueTest{})
			}
		}
	})
}
