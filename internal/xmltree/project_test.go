package xmltree

import (
	"strings"
	"testing"
)

const siteXML = `
<site>
  <regions>
    <africa>
      <item id="i1">
        <name>vase</name>
        <payment>Cash</payment>
        <description><parlist><listitem><text>x</text></listitem></parlist></description>
      </item>
    </africa>
    <asia>
      <item id="i2">
        <name>urn</name>
        <shipping>worldwide</shipping>
      </item>
    </asia>
  </regions>
</site>`

func TestParseProjectedKeepsQueryTags(t *testing.T) {
	keep := KeepTags("item", "name", "description", "parlist")
	doc, err := ParseProjected(strings.NewReader(siteXML), keep)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ParseString(siteXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() >= full.Size() {
		t.Fatalf("projection did not shrink: %d vs %d", doc.Size(), full.Size())
	}
	count := func(d *Document, tag string) int {
		n := 0
		d.Walk(func(node *Node) bool {
			if node.Tag == tag {
				n++
			}
			return true
		})
		return n
	}
	// Kept tags survive in full.
	for _, tag := range []string{"item", "name", "description", "parlist"} {
		if count(doc, tag) != count(full, tag) {
			t.Fatalf("tag %s: %d vs %d", tag, count(doc, tag), count(full, tag))
		}
	}
	// Dropped subtrees are gone.
	for _, tag := range []string{"payment", "shipping", "text", "listitem", "@id"} {
		if count(doc, tag) != 0 {
			t.Fatalf("tag %s survived projection", tag)
		}
	}
	// Ancestors of kept nodes survive even when not requested.
	for _, tag := range []string{"site", "regions", "africa", "asia"} {
		if count(doc, tag) != count(full, tag) {
			t.Fatalf("ancestor %s: %d vs %d", tag, count(doc, tag), count(full, tag))
		}
	}
}

func TestParseProjectedPreservesLevelsAndValues(t *testing.T) {
	keep := KeepTags("item", "name")
	doc, err := ParseProjected(strings.NewReader(siteXML), keep)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := ParseString(siteXML)
	findAll := func(d *Document, tag string) []*Node {
		var out []*Node
		d.Walk(func(n *Node) bool {
			if n.Tag == tag {
				out = append(out, n)
			}
			return true
		})
		return out
	}
	pItems, fItems := findAll(doc, "item"), findAll(full, "item")
	if len(pItems) != len(fItems) {
		t.Fatal("item counts differ")
	}
	for i := range pItems {
		if pItems[i].Level() != fItems[i].Level() {
			t.Fatalf("item %d level %d vs %d", i, pItems[i].Level(), fItems[i].Level())
		}
	}
	pNames := findAll(doc, "name")
	if len(pNames) != 2 || pNames[0].Value != "vase" || pNames[1].Value != "urn" {
		t.Fatalf("name values lost: %v", pNames)
	}
	// pc relationship item→name preserved via Dewey.
	for i, n := range pNames {
		if !n.ID.Path().IsChildOf(pItems[i].ID.Path()) {
			t.Fatalf("name %d not a Dewey child of its item", i)
		}
		if n.Parent != pItems[i] {
			t.Fatalf("name %d parent pointer broken", i)
		}
	}
}

func TestParseProjectedAttributes(t *testing.T) {
	keep := KeepTags("item", "@id")
	doc, err := ParseProjected(strings.NewReader(siteXML), keep)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	doc.Walk(func(n *Node) bool {
		if n.Tag == "@id" {
			found++
			if n.Parent.Tag != "item" {
				t.Fatalf("@id parent = %s", n.Parent.Tag)
			}
		}
		return true
	})
	if found != 2 {
		t.Fatalf("@id nodes = %d", found)
	}
}

func TestParseProjectedKeepNothing(t *testing.T) {
	doc, err := ParseProjected(strings.NewReader(siteXML), KeepTags())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 0 {
		t.Fatalf("empty projection has %d nodes", doc.Size())
	}
}

func TestParseProjectedErrors(t *testing.T) {
	for _, bad := range []string{"<a><b></a>", "<a>"} {
		if _, err := ParseProjected(strings.NewReader(bad), KeepTags("a")); err == nil {
			t.Errorf("ParseProjected(%q) should fail", bad)
		}
	}
}

func TestParseProjectedOrdinalsAreConsistent(t *testing.T) {
	doc, err := ParseProjected(strings.NewReader(siteXML), KeepTags("item", "name", "description"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range doc.Nodes {
		if int(n.Ord) != i {
			t.Fatalf("ordinal mismatch at %d", i)
		}
		if n.Parent != nil && !n.Parent.ID.Path().IsParentOf(n.ID.Path()) {
			t.Fatalf("Dewey inconsistency at %v", n)
		}
	}
	// Preorder document order.
	for i := 1; i < len(doc.Nodes); i++ {
		if doc.Nodes[i].ID.Path().Compare(doc.Nodes[i-1].ID.Path()) <= 0 {
			t.Fatal("projected nodes out of document order")
		}
	}
}
