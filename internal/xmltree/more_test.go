package xmltree

import (
	"strings"
	"testing"
)

func TestParseMixedContentConcatenation(t *testing.T) {
	// Character data around child elements concatenates into the
	// element's own value.
	doc, err := ParseString(`<p>hello <b>bold</b> world</p>`)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.Roots[0]
	if p.Value != "hello  world" && p.Value != "hello world" {
		t.Fatalf("mixed content value = %q", p.Value)
	}
	if p.Children[0].Value != "bold" {
		t.Fatalf("child value = %q", p.Children[0].Value)
	}
}

func TestParseCommentsAndPI(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 2 {
		t.Fatalf("size = %d (comments/PIs must not become nodes)", doc.Size())
	}
}

func TestParseCDATA(t *testing.T) {
	doc, err := ParseString(`<a><![CDATA[raw <stuff> & more]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Roots[0].Value, "<stuff>") {
		t.Fatalf("CDATA value = %q", doc.Roots[0].Value)
	}
}

func TestParseDeepNesting(t *testing.T) {
	var b strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	doc, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != depth {
		t.Fatalf("size = %d", doc.Size())
	}
	deepest := doc.Nodes[depth-1]
	if deepest.Level() != depth || deepest.Value != "x" {
		t.Fatalf("deepest = %v level %d", deepest, deepest.Level())
	}
}

func TestSerializeAttributesRoundTrip(t *testing.T) {
	doc, err := ParseString(`<a x="1" y="two words"><b z="&lt;"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := doc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	find := func(d *Document, tag string) *Node {
		for _, n := range d.Nodes {
			if n.Tag == tag {
				return n
			}
		}
		return nil
	}
	for _, attr := range []string{"@x", "@y", "@z"} {
		a, b := find(doc, attr), find(doc2, attr)
		if a == nil || b == nil || a.Value != b.Value {
			t.Fatalf("attribute %s lost in round trip (%v vs %v)", attr, a, b)
		}
	}
}
