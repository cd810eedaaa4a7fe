package xmltree

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzParse checks that the XML parser never panics, refuses exactly
// what the encoding/xml reference refuses and otherwise yields its
// columns — the levels and positions it scans equal to the ones Shape
// derives from the parents, as a snapshot open does — assigns
// consistent structure to whatever it accepts — ordinals, intervals,
// derived Dewey IDs and levels (checkIntervals), and the same paths,
// Dewey IDs and levels rendered from the columns (checkColumnRender) —
// and that Serialize output re-parses to the same tags and values, as
// does ParseProjected keeping every tag. The projected parse reads
// through a window of at most 8 bytes, which it must grow and move
// across every kind of token, and must refuse what Parse refuses with
// the same error.
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
		// Line ends, references, CDATA, skipped markup, names and text
		// outside the root, accepted.
		"<a>x\r\ny\rz</a>",
		"<a v=\"x\r\ny\rz\"/>",
		"<a b='&lt;&gt;&amp;&apos;&quot;'>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xD800;</a>",
		"<a>x&#13;y</a>",
		"<a v=\"x&#13;y\"/>",
		"<a><![CDATA[<raw> & ]] \r\n]]></a>",
		"<!DOCTYPE a [<!ENTITY e \"v\"><!-- > --><!ELEMENT a ANY>]><?pi data?><a><?x?><!-- c --></a>",
		"<x:a xmlns:x=\"u\" x:b=\"1\" xmlns=\"v\"></x:a>",
		`<a b="1" b="2" c='3'd="4"/>`,
		"pre<a/>mid<b/>post",
		"\xef\xbb\xbf<?xml version=\"1.0\" encoding=\"Utf-8\"?><a/>",
		// Refused.
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>",
		"<?xml version=\"1.1\"?><a/>",
		"<a>&foo;</a>",
		"<a>&#0;</a>",
		"<x:a></y:a>",
		"<a b=c/>",
		"<a:b:c/>",
		"<a>\x01</a>",
		"<a>\xff</a>",
		"<a>]]></a>",
		"<a><!-- x -- y --></a>",
		"<a b=\"<\"/>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ref, refErr := referenceColumns(strings.NewReader(input))
		c, err := parseColumns([]byte(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("scanner error %v, reference error %v", err, refErr)
		}
		projected, projErr := parseProjected(strings.NewReader(input), func(string) bool { return true }, 1+len(input)%8)
		if (err == nil) != (projErr == nil) {
			t.Fatalf("projected parse error %v, Parse error %v", projErr, err)
		}
		if err != nil {
			if se, pe := syntax(err), syntax(projErr); se == nil || pe == nil || *se != *pe {
				t.Fatalf("projected parse error %v, Parse error %v", projErr, err)
			}
			return
		}
		if !slices.Equal(c.Tags, ref.Tags) || !slices.Equal(c.TagIDs, ref.TagIDs) ||
			!slices.Equal(c.Parents, ref.Parents) || !slices.Equal(c.Subtree, ref.Subtree) ||
			!slices.Equal(c.Level, ref.Level) || !slices.Equal(c.Pos, ref.Pos) {
			t.Fatalf("columns differ from the reference:\n%+v\n%+v", c, ref)
		}
		for i := range c.TagIDs {
			if v, rv := c.Values[c.ValueLo[i]:c.ValueHi[i]], ref.Values[ref.ValueLo[i]:ref.ValueHi[i]]; v != rv {
				t.Fatalf("node %d: value %q, reference %q", i, v, rv)
			}
		}
		doc, err := ParseString(input)
		if err != nil {
			t.Fatalf("Parse refuses what its columns accept: %v", err)
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
		checkColumnRender(t, doc)
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
		for i, n := range doc.Nodes {
			if n2 := doc2.Nodes[i]; n.Tag != n2.Tag || n.Value != n2.Value {
				t.Fatalf("round trip changed node %d: %v -> %v", i, n, n2)
			}
		}
		checkIntervals(t, projected)
		checkColumnRender(t, projected)
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

// checkColumnRender holds what the columns render for every ordinal —
// path, Dewey ID and level, as the daemon renders answers — to what the
// node slab says.
func checkColumnRender(t *testing.T, doc *Document) {
	t.Helper()
	c := doc.Columns()
	for i, n := range doc.Nodes {
		o := int32(i)
		if c.Path(o) != n.Path() || string(c.AppendDewey(nil, o)) != n.ID.String() || int(c.Level[o]) != n.Level() {
			t.Fatalf("node %d: columns render %s @%s level %d, the slab %s @%s level %d",
				i, c.Path(o), c.AppendDewey(nil, o), c.Level[o], n.Path(), n.ID, n.Level())
		}
	}
}

// syntax returns the syntax error err wraps, or nil.
func syntax(err error) *syntaxError {
	var se *syntaxError
	errors.As(err, &se)
	return se
}
