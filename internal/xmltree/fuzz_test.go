package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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
// and that Serialize output re-parses to the same tags and values. It
// also projects the input keeping every tag, then to three keep sets
// drawn from its tags, and holds each result column for column to
// projectSlab, a projection of Parse's node slab. The projected parse
// reads through a window of at most 10 bytes, which it must grow and
// move across every kind of token, and must refuse what Parse refuses
// with the same error.
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
		"<a><b/><c x='1'><d/>t<b y='2'/></c><b/><e>v</e></a><f/><a/>",
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
		// Projections that drop elements numbering tags first, drop
		// forest roots, and keep an ancestor for its descendant only.
		"<r><x><y/>t</x><k>1</k><y/><x><k>2</k></x></r>",
		"<a/><k>1</k><b><c/></b><b><k>2</k></b>",
		"<a>lost<k>x <d>gone</d> y</k></a>",
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
		keep := func(string) bool { return true }
		projected, projErr := parseProjected(strings.NewReader(input), keep, 1+len(input)%8)
		if (err == nil) != (projErr == nil) {
			t.Fatalf("projected parse error %v, Parse error %v", projErr, err)
		}
		if err != nil {
			if se, pe := syntax(err), syntax(projErr); se == nil || pe == nil || *se != *pe {
				t.Fatalf("projected parse error %v, Parse error %v", projErr, err)
			}
			return
		}
		sameColumns(t, "the scanner's", c, ref)
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
		for draw := 0; draw < 4; draw++ {
			if draw > 0 {
				keep = drawKeep(input, draw, c.Tags)
				if projected, err = parseProjected(strings.NewReader(input), keep, draw+len(input)%8); err != nil {
					t.Fatalf("projected parse: %v", err)
				}
			}
			sameColumns(t, fmt.Sprintf("projection %d's", draw), projected, projectSlab(doc, keep))
			checkIntervals(t, projected.Build())
		}
	})
}

// sameColumns holds got, what names, to the reference columns want:
// every column, and each node's value (the value bytes may lie in
// another order).
func sameColumns(t *testing.T, what string, got, want *Columns) {
	t.Helper()
	if !slices.Equal(got.Tags, want.Tags) || !slices.Equal(got.TagIDs, want.TagIDs) ||
		!slices.Equal(got.Parents, want.Parents) || !slices.Equal(got.Subtree, want.Subtree) ||
		!slices.Equal(got.Level, want.Level) || !slices.Equal(got.Pos, want.Pos) {
		t.Fatalf("%s columns differ from the reference:\n%+v\n%+v", what, got, want)
	}
	for i := range got.TagIDs {
		if v, rv := got.Value(int32(i)), want.Value(int32(i)); v != rv {
			t.Fatalf("%s node %d: value %q, reference %q", what, i, v, rv)
		}
	}
}

// drawKeep draws a keep set from tags, each tag at even odds, seeded by
// the input and the draw.
func drawKeep(input string, draw int, tags []string) func(string) bool {
	h := fnv.New64a()
	h.Write([]byte(input))
	r := rand.New(rand.NewSource(int64(h.Sum64()) + int64(draw)))
	set := make(map[string]bool)
	for _, tag := range tags {
		if r.Intn(2) == 0 {
			set[tag] = true
		}
	}
	return func(tag string) bool { return set[tag] }
}

// projectSlab is ParseProjected's reference, written over doc's node
// slab: the nodes whose tag is kept or that have a kept descendant, in
// preorder, with the tag table numbered in order of first appearance
// among them, parents and positions among them, doc's levels, and the
// value of a kept node — none for an ancestor kept for its descendants.
func projectSlab(doc *Document, keep func(string) bool) *Columns {
	var (
		c      Columns
		ids    = make(map[string]uint32)
		values strings.Builder
		stays  func(n *Node) bool
		walk   func(n *Node, parent uint32, pos int32)
	)
	stays = func(n *Node) bool {
		return keep(n.Tag) || slices.ContainsFunc(n.Children, stays)
	}
	walk = func(n *Node, parent uint32, pos int32) {
		ord := len(c.TagIDs)
		id, ok := ids[n.Tag]
		if !ok {
			id = uint32(len(c.Tags))
			ids[n.Tag] = id
			c.Tags = append(c.Tags, n.Tag)
		}
		c.TagIDs, c.Parents, c.Subtree = append(c.TagIDs, id), append(c.Parents, parent), append(c.Subtree, 0)
		c.Level, c.Pos = append(c.Level, int32(n.Level())), append(c.Pos, pos)
		c.ValueLo = append(c.ValueLo, uint32(values.Len()))
		if keep(n.Tag) {
			values.WriteString(n.Value)
		}
		c.ValueHi = append(c.ValueHi, uint32(values.Len()))
		kids := int32(0)
		for _, ch := range n.Children {
			if stays(ch) {
				walk(ch, uint32(ord)+1, kids)
				kids++
			}
		}
		c.Subtree[ord] = uint32(len(c.TagIDs) - ord)
	}
	roots := int32(0)
	for _, r := range doc.Roots {
		if stays(r) {
			walk(r, 0, roots)
			roots++
		}
	}
	c.Values = values.String()
	return &c
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
