package xmltree

import (
	"slices"
	"strconv"
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

// project builds the node slab of in's projection to the tags keep
// accepts.
func project(t *testing.T, in string, keep func(string) bool) *Document {
	t.Helper()
	c, err := ParseProjected(strings.NewReader(in), keep)
	if err != nil {
		t.Fatal(err)
	}
	return c.Build()
}

func TestParseProjectedKeepsQueryTags(t *testing.T) {
	keep := KeepTags("item", "name", "description", "parlist")
	doc := project(t, siteXML, keep)
	full, err := ParseString(siteXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() >= full.Size() {
		t.Fatalf("projection did not shrink: %d vs %d", doc.Size(), full.Size())
	}
	count := func(d *Document, tag string) int {
		n := 0
		for _, node := range d.Nodes {
			if node.Tag == tag {
				n++
			}
		}
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
	doc := project(t, siteXML, keep)
	full, _ := ParseString(siteXML)
	findAll := func(d *Document, tag string) []*Node {
		var out []*Node
		for _, n := range d.Nodes {
			if n.Tag == tag {
				out = append(out, n)
			}
		}
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
		if !pItems[i].ID.Path().IsParentOf(n.ID.Path()) {
			t.Fatalf("name %d not a Dewey child of its item", i)
		}
		if n.Parent != pItems[i] {
			t.Fatalf("name %d parent pointer broken", i)
		}
	}
}

func TestParseProjectedAttributes(t *testing.T) {
	keep := KeepTags("item", "@id")
	doc := project(t, siteXML, keep)
	found := 0
	for _, n := range doc.Nodes {
		if n.Tag == "@id" {
			found++
			if n.Parent.Tag != "item" {
				t.Fatalf("@id parent = %s", n.Parent.Tag)
			}
		}
	}
	if found != 2 {
		t.Fatalf("@id nodes = %d", found)
	}
}

func TestParseProjectedKeepNothing(t *testing.T) {
	doc := project(t, siteXML, KeepTags())
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
	doc := project(t, siteXML, KeepTags("item", "name", "description"))
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
		if slices.Compare(doc.Nodes[i].ID.Path(), doc.Nodes[i-1].ID.Path()) <= 0 {
			t.Fatal("projected nodes out of document order")
		}
	}
}

// TestParseProjectedRollsBackTags: a dropped element takes back the tags
// it numbered first, so tags are numbered in order of first appearance
// among the kept nodes, and positions count the kept siblings only —
// through any window.
func TestParseProjectedRollsBackTags(t *testing.T) {
	const in = `<r><x><y/>t</x><k>1</k><y/><x><k>2</k></x></r>`
	want := &Columns{
		Tags: []string{"r", "k", "x"}, TagIDs: []uint32{0, 1, 2, 1},
		Parents: []uint32{0, 1, 1, 3}, Subtree: []uint32{4, 1, 2, 1},
		Level: []int32{1, 2, 2, 3}, Pos: []int32{0, 0, 1, 0},
		ValueLo: []uint32{0, 0, 1, 1}, ValueHi: []uint32{0, 1, 1, 2}, Values: "12",
	}
	for _, window := range []int{1, 7, 64 << 10} {
		c, err := parseProjected(strings.NewReader(in), KeepTags("k"), window)
		if err != nil {
			t.Fatal(err)
		}
		sameColumns(t, "window "+strconv.Itoa(window), c, want)
	}
}
