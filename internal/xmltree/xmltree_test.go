package xmltree

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

const bookXML = `
<book>
  <title>wodehouse</title>
  <info>
    <publisher>
      <name>psmith</name>
      <location>london</location>
    </publisher>
    <isbn>1234</isbn>
  </info>
  <price>48.95</price>
</book>`

func TestParseBasicStructure(t *testing.T) {
	doc, err := ParseString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(doc.Roots))
	}
	book := doc.Roots[0]
	if book.Tag != "book" {
		t.Fatalf("root tag = %q", book.Tag)
	}
	if len(book.Children) != 3 {
		t.Fatalf("book children = %d, want 3", len(book.Children))
	}
	title := book.Children[0]
	if title.Tag != "title" || title.Value != "wodehouse" {
		t.Fatalf("title = %v", title)
	}
	if title.Parent != book {
		t.Fatal("parent pointer broken")
	}
	name := book.Children[1].Children[0].Children[0]
	if name.Tag != "name" || name.Value != "psmith" {
		t.Fatalf("nested node = %v", name)
	}
}

func TestParseDeweyAssignment(t *testing.T) {
	doc, err := ParseString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	book := doc.Roots[0]
	if got := book.ID.String(); got != "0" {
		t.Fatalf("root ID = %s, want 0", got)
	}
	loc := book.Children[1].Children[0].Children[1]
	if got := loc.ID.String(); got != "0.1.0.1" {
		t.Fatalf("location ID = %s, want 0.1.0.1", got)
	}
	if !book.ID.Path().IsAncestorOf(loc.ID.Path()) {
		t.Fatal("Dewey ancestor relation broken")
	}
}

func TestParsePreorderOrdinals(t *testing.T) {
	doc, err := ParseString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range doc.Nodes {
		if int(n.Ord) != i {
			t.Fatalf("ordinal mismatch at %d: %d", i, n.Ord)
		}
	}
	// Preorder: each node's Dewey ID must be >= the previous one's.
	for i := 1; i < len(doc.Nodes); i++ {
		if slices.Compare(doc.Nodes[i].ID.Path(), doc.Nodes[i-1].ID.Path()) <= 0 {
			t.Fatalf("preorder violated between %v and %v", doc.Nodes[i-1], doc.Nodes[i])
		}
	}
}

// checkIntervals holds every node's preorder interval and derived Dewey
// ID to the tree: End is the ordinal of its last descendant, ID renders
// the child indices on the path down from its forest root, Level is the
// ID's length, and the interval containment test agrees with the Dewey
// prefix test — on every pair with one of the first 256 nodes.
func checkIntervals(t *testing.T, doc *Document) {
	t.Helper()
	var walk func(n, parent *Node, id string)
	walk = func(n, parent *Node, id string) {
		if n.Parent != parent || n.ID.String() != id || n.Level() != len(n.ID.Path()) {
			t.Fatalf("%v: parent %v, ID %s, level %d (%d components); the walk says parent %v, ID %s",
				n, n.Parent, n.ID, n.Level(), len(n.ID.Path()), parent, id)
		}
		for i, c := range n.Children {
			walk(c, n, id+"."+strconv.Itoa(i))
		}
	}
	for i, r := range doc.Roots {
		walk(r, nil, strconv.Itoa(i))
	}
	for _, n := range doc.Nodes {
		last := n
		for len(last.Children) > 0 {
			last = last.Children[len(last.Children)-1]
		}
		if n.End != last.Ord {
			t.Fatalf("%v: End = %d, its last descendant is %d", n, n.End, last.Ord)
		}
	}
	for _, a := range doc.Nodes[:min(len(doc.Nodes), 256)] {
		for _, b := range doc.Nodes {
			if a.Contains(b) != a.ID.Path().IsAncestorOf(b.ID.Path()) || b.Contains(a) != b.ID.Path().IsAncestorOf(a.ID.Path()) {
				t.Fatalf("%v, %v: interval and Dewey containment disagree", a, b)
			}
		}
	}
}

func TestIntervalNumbering(t *testing.T) {
	parsed, err := ParseString(bookXML + `<book><title/><info><isbn>9</isbn></info></book>`)
	if err != nil {
		t.Fatal(err)
	}
	projected := project(t, bookXML, KeepTags("name", "isbn"))
	built := NewBuilder().Root("a").Open("b").Leaf("c", "1").Leaf("c", "2").Close().Leaf("d", "").Root("a").Doc()
	// Columns written by hand, as a snapshot reader hands them to Build:
	// r(x(y), z), with values on y and z.
	manual := (&Columns{
		Tags: []string{"r", "x", "y", "z"}, TagIDs: []uint32{0, 1, 2, 3},
		Parents: []uint32{0, 1, 2, 1}, Subtree: []uint32{4, 2, 1, 1},
		Level: []int32{1, 2, 3, 2}, Pos: []int32{0, 0, 0, 1},
		ValueLo: []uint32{0, 0, 0, 1}, ValueHi: []uint32{0, 0, 1, 2}, Values: "vw",
	}).Build()
	for name, doc := range map[string]*Document{"parsed": parsed, "projected": projected, "built": built, "manual": manual} {
		t.Run(name, func(t *testing.T) { checkIntervals(t, doc) })
	}
}

// TestNodeSize pins Node at 88 bytes, its size in the node slab: the
// Dewey ID is an 8-byte handle rather than a slice, and the interval
// bounds, level and position are int32s. Any one of them widened to 8
// bytes, or the ID stored again, would grow every node.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 88", got)
	}
}

func TestParseAttributesBecomeNodes(t *testing.T) {
	doc, err := ParseString(`<item id="i7"><name>gold</name></item>`)
	if err != nil {
		t.Fatal(err)
	}
	item := doc.Roots[0]
	if len(item.Children) != 2 {
		t.Fatalf("children = %d, want 2 (attr + name)", len(item.Children))
	}
	attr := item.Children[0]
	if attr.Tag != "@id" || attr.Value != "i7" {
		t.Fatalf("attr node = %v", attr)
	}
}

// TestParseInternsTags: every node carrying a tag shares the one copy
// of it in the document's tag table — elements and attribute nodes alike.
func TestParseInternsTags(t *testing.T) {
	doc, err := ParseString(`<a><b id="1"/><c><b id="2"/></c><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	for _, n := range doc.Nodes {
		p, seen := first[n.Tag]
		if !seen {
			first[n.Tag] = unsafe.StringData(n.Tag)
			continue
		}
		if p != unsafe.StringData(n.Tag) {
			t.Fatalf("%v holds its own copy of the tag %q", n, n.Tag)
		}
	}
	if len(first) != 4 {
		t.Fatalf("tags %v, want a, b, c and @id", first)
	}
}

func TestParseForest(t *testing.T) {
	// The model accepts a forest (Figure 1's three books).
	doc, err := ParseString(`<book><title>a</title></book><book><title>b</title></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(doc.Roots))
	}
	if doc.Roots[0].ID.String() != "0" || doc.Roots[1].ID.String() != "1" {
		t.Fatalf("forest IDs = %s, %s", doc.Roots[0].ID, doc.Roots[1].ID)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"<a><b></a>", "<a>", "</a>", "<a attr=></a>"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc, err := ParseString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if doc2.Size() != doc.Size() {
		t.Fatalf("round trip size %d != %d", doc2.Size(), doc.Size())
	}
	for i := range doc.Nodes {
		a, b := doc.Nodes[i], doc2.Nodes[i]
		if a.Tag != b.Tag || a.Value != b.Value || a.ID.String() != b.ID.String() {
			t.Fatalf("node %d mismatch: %v vs %v", i, a, b)
		}
	}
}

func TestSerializeEscapesText(t *testing.T) {
	doc, err := ParseString(`<a>x &amp; y &lt; z</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Roots[0].Value != "x & y < z" {
		t.Fatalf("value = %q", doc.Roots[0].Value)
	}
	var buf bytes.Buffer
	if err := doc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "&amp;") || !strings.Contains(buf.String(), "&lt;") {
		t.Fatalf("unescaped output: %s", buf.String())
	}
	if _, err := Parse(&buf); err != nil {
		t.Fatalf("re-parse of escaped output: %v", err)
	}
}

func TestBuilder(t *testing.T) {
	doc := NewBuilder().
		Root("site").
		Open("items").
		Open("item").Leaf("name", "vase").Leaf("price", "12").Close().
		Open("item").Leaf("name", "urn").Close().
		Close().
		Doc()
	if len(doc.Roots) != 1 || doc.Roots[0].Tag != "site" {
		t.Fatal("builder root broken")
	}
	items := doc.Roots[0].Children[0]
	if len(items.Children) != 2 {
		t.Fatalf("items children = %d", len(items.Children))
	}
	if items.Children[0].Children[1].Value != "12" {
		t.Fatal("leaf value lost")
	}
	// Ordinals assigned.
	if doc.Nodes[0].Ord != 0 || doc.Size() != 7 {
		t.Fatalf("size = %d, want 7", doc.Size())
	}
	// Text sets the open element's value, last call winning, also after
	// its children; Root closes what is open; values are kept verbatim.
	doc = NewBuilder().Root("a").Text("x").Open("b").Text(" y ").Close().Text("z").Root("c").Leaf("d", "").Doc()
	var got []string
	for _, n := range doc.Nodes {
		got = append(got, n.String())
	}
	if want := []string{"a(z)@0", "b( y )@0.0", "c@1", "d@1.0"}; !slices.Equal(got, want) {
		t.Fatalf("nodes %q, want %q", got, want)
	}
	// Closing with nothing open panics.
	defer func() {
		if recover() == nil {
			t.Fatal("Close with no element open did not panic")
		}
	}()
	NewBuilder().Root("a").Close().Close()
}

// TestBuilderMatchesParse: Builder and Parse drive the same column
// writer, so a document built by hand and the same document parsed have
// the same columns: tag numbering, parents, subtrees, levels, positions
// and values, attributes as leading "@name" children included.
func TestBuilderMatchesParse(t *testing.T) {
	parsed, err := ParseColumns(strings.NewReader(`<a id="7"><b>x<c>2</c></b><c/></a><d>y</d>`))
	if err != nil {
		t.Fatal(err)
	}
	built := NewBuilder().Root("a").Leaf("@id", "7").Open("b").Text("x").Leaf("c", "2").Close().Leaf("c", "").
		Root("d").Text("y").Doc()
	sameColumns(t, "built", built.Columns(), parsed)
}

// TestBuilderForest: with no element open, Open and Leaf append forest
// roots and Text is dropped, so it leaks into no later element's value.
func TestBuilderForest(t *testing.T) {
	doc := NewBuilder().Text("stray").Leaf("a", "1").Open("b").Leaf("c", "").Close().Text("lost").Open("d").Doc()
	var got []string
	for _, n := range doc.Nodes {
		got = append(got, n.String())
	}
	if want := []string{"a(1)@0", "b@1", "c@1.0", "d@2"}; !slices.Equal(got, want) {
		t.Fatalf("nodes %q, want %q", got, want)
	}
	if len(doc.Roots) != 3 {
		t.Fatalf("%d roots, want 3", len(doc.Roots))
	}
}

func TestTags(t *testing.T) {
	doc, _ := ParseString(bookXML)
	tags := doc.Tags()
	want := []string{"book", "info", "isbn", "location", "name", "price", "publisher", "title"}
	if len(tags) != len(want) {
		t.Fatalf("tags = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	doc, _ := ParseString(bookXML)
	count := 0
	doc.Walk(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk visited %d, want 3", count)
	}
}

func TestNodeHelpers(t *testing.T) {
	doc, _ := ParseString(bookXML)
	book := doc.Roots[0]
	name := book.Children[1].Children[0].Children[0]
	if got := name.Path(); got != "book/info/publisher/name" {
		t.Fatalf("Path = %q", got)
	}
	desc := book.Descendants()
	if len(desc) != doc.Size()-1 {
		t.Fatalf("descendants = %d, want %d", len(desc), doc.Size()-1)
	}
	if book.Level() != 1 || name.Level() != 4 {
		t.Fatalf("levels = %d, %d", book.Level(), name.Level())
	}
	if s := name.String(); s != "name(psmith)@0.1.0.0" {
		t.Fatalf("String = %q", s)
	}
	var nilNode *Node
	if nilNode.String() != "<nil>" {
		t.Fatal("nil String")
	}
}

// TestShapeAcceptsExactlyTrees: over random parent and subtree columns
// of the kind the snapshot reader passes on (every parent before its
// child, every subtree inside the document), Shape accepts exactly those
// whose intervals holding each node are its ancestors' and its own —
// the agreement between interval tests and parent climbs the engine
// relies on.
func TestShapeAcceptsExactlyTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	accepted := 0
	for trial := 0; trial < 200000; trial++ {
		n := 1 + r.Intn(6)
		c := &Columns{Parents: make([]uint32, n), Subtree: make([]uint32, n)}
		for i := range c.Parents {
			c.Parents[i] = uint32(r.Intn(i + 1))
			c.Subtree[i] = uint32(1 + r.Intn(n-i))
		}
		tree := true
		for x := int32(0); x < int32(n); x++ {
			holding := 0 // intervals holding x
			for y := int32(0); y <= x; y++ {
				if x <= c.End(y) {
					holding++
				}
			}
			depth := 0 // x and its ancestors, each holding x in a tree
			for a := x; a >= 0; a = c.Parent(a) {
				if x > c.End(a) {
					tree = false
				}
				depth++
			}
			if holding != depth {
				tree = false
			}
		}
		if err := c.Shape(); (err == nil) != tree {
			t.Fatalf("parents %v, subtrees %v: Shape says %v, want a tree: %v", c.Parents, c.Subtree, err, tree)
		}
		if tree {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no tree drawn")
	}
}
