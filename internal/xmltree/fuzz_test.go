package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse checks that the XML parser never panics, assigns consistent
// structure to whatever it accepts — ordinals, intervals, derived Dewey
// IDs and levels (checkIntervals) — and that Serialize output re-parses
// to the same shape, as does ParseProjected keeping every tag.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a><b>text</b></a>",
		`<a x="1"><b/><b/></a>`,
		"<a>x &amp; y</a>",
		"<a><b></a>",
		"<a>",
		"</a>",
		"<a/><b/>",
		"<a>\xff\xfe</a>",
		"<a><![CDATA[raw]]></a>",
		"<?xml version=\"1.0\"?><a/>",
		"<a><!-- comment --><b/></a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := ParseString(input)
		if err != nil {
			return
		}
		// Invariants of accepted documents.
		for i, n := range doc.Nodes {
			if int(n.Ord) != i {
				t.Fatalf("ordinal mismatch at %d", i)
			}
			if n.Parent != nil && !n.Parent.ID.Path().IsParentOf(n.ID.Path()) {
				t.Fatalf("Dewey/parent inconsistency at %v", n)
			}
			for _, c := range n.Children {
				if c.Parent != n {
					t.Fatalf("child %v does not point back to %v", c, n)
				}
			}
		}
		checkIntervals(t, doc)
		// Serialize must produce re-parseable XML with the same shape.
		var buf bytes.Buffer
		if err := doc.Serialize(&buf); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		doc2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse of serialized output: %v\n%s", err, buf.String())
		}
		if doc2.Size() != doc.Size() {
			t.Fatalf("round trip changed node count: %d -> %d", doc.Size(), doc2.Size())
		}
		for i := range doc.Nodes {
			if doc.Nodes[i].Tag != doc2.Nodes[i].Tag {
				t.Fatalf("round trip changed tag at %d", i)
			}
		}
		projected, err := ParseProjected(strings.NewReader(input), func(string) bool { return true })
		if err != nil {
			t.Fatalf("projected parse rejects what Parse accepts: %v", err)
		}
		checkIntervals(t, projected)
		if projected.Size() != doc.Size() {
			t.Fatalf("projection keeping every tag holds %d nodes, Parse %d", projected.Size(), doc.Size())
		}
		for i, n := range doc.Nodes {
			if p := projected.Nodes[i]; p.Tag != n.Tag || p.Value != n.Value || p.ID.String() != n.ID.String() || p.End != n.End {
				t.Fatalf("node %d: projected %v (end %d), parsed %v (end %d)", i, p, p.End, n, n.End)
			}
		}
	})
}
