package pattern

import (
	"strings"
	"testing"

	"repro/internal/dewey"
)

// The paper's three XMark queries (Section 6.2.1) and the Figure 2
// bookstore query.
const (
	q1XPath    = "//item[./description/parlist]"
	q2XPath    = "//item[./description/parlist and ./mailbox/mail/text]"
	q3XPath    = "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]"
	bookXPath  = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
	book2XPath = "/book[.//title = 'wodehouse' and .//publisher/name = 'psmith']"
)

func TestParseQ1(t *testing.T) {
	q, err := Parse(q1XPath)
	if err != nil {
		t.Fatal(err)
	}
	if q.Size() != 3 {
		t.Fatalf("Q1 size = %d, want 3", q.Size())
	}
	root := q.Root()
	if root.Tag != "item" || root.Axis != dewey.Descendant {
		t.Fatalf("root = %+v", root)
	}
	desc := q.Nodes[1]
	if desc.Tag != "description" || desc.Axis != dewey.Child || desc.Parent != 0 {
		t.Fatalf("description = %+v", desc)
	}
	parlist := q.Nodes[2]
	if parlist.Tag != "parlist" || parlist.Parent != 1 {
		t.Fatalf("parlist = %+v", parlist)
	}
}

func TestParseQ2(t *testing.T) {
	q := MustParse(q2XPath)
	if q.Size() != 6 {
		t.Fatalf("Q2 size = %d, want 6 (paper's 6-node query)", q.Size())
	}
	// Two branches under item.
	if len(q.Root().Children) != 2 {
		t.Fatalf("root children = %v", q.Root().Children)
	}
	tags := make([]string, q.Size())
	for i, n := range q.Nodes {
		tags[i] = n.Tag
	}
	want := []string{"item", "description", "parlist", "mailbox", "mail", "text"}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
}

func TestParseQ3(t *testing.T) {
	q := MustParse(q3XPath)
	if q.Size() != 8 {
		t.Fatalf("Q3 size = %d, want 8 (paper's 8-node query)", q.Size())
	}
	// text has two pattern children: bold, keyword.
	var text *Node
	for _, n := range q.Nodes {
		if n.Tag == "text" {
			text = n
		}
	}
	if text == nil || len(text.Children) != 2 {
		t.Fatalf("text node = %+v", text)
	}
	if q.Nodes[text.Children[0]].Tag != "bold" || q.Nodes[text.Children[1]].Tag != "keyword" {
		t.Fatal("nested predicate children wrong")
	}
}

func TestParseValues(t *testing.T) {
	q := MustParse(bookXPath)
	if q.Size() != 5 {
		t.Fatalf("size = %d, want 5 (Figure 2(a): book, title, info, publisher, name)", q.Size())
	}
	var title, name *Node
	for _, n := range q.Nodes {
		switch n.Tag {
		case "title":
			title = n
		case "name":
			name = n
		}
	}
	if title.Value != "wodehouse" || title.Axis != dewey.Child {
		t.Fatalf("title = %+v", title)
	}
	if name.Value != "psmith" {
		t.Fatalf("name = %+v", name)
	}
	// Figure 2(c)-style query with ad edges.
	q2 := MustParse(book2XPath)
	var t2 *Node
	for _, n := range q2.Nodes {
		if n.Tag == "title" {
			t2 = n
		}
	}
	if t2.Axis != dewey.Descendant {
		t.Fatalf("//title should be ad, got %v", t2.Axis)
	}
}

// TestParseRejectsSiblingAxis: tree patterns have pc and ad edges only, so
// following-sibling:: is a parse error naming the axis wherever it
// stands: as the root step, below a child step, or opening a predicate.
func TestParseRejectsSiblingAxis(t *testing.T) {
	for _, c := range []struct{ name, query string }{
		{"root", "/following-sibling::a"},
		{"root-descendant", "//following-sibling::a[./b]"},
		{"below-child", "/a[./c/following-sibling::e]"},
		{"below-descendant", "/a[.//c/following-sibling::e]"},
		{"after-and", "/a[./b and following-sibling::e]"},
		{"opening-predicate", "/a[following-sibling::x]"},
		{"nested-predicate", "/a[./b and ./c[.//d and following-sibling::e]]"}, // Section 4's example
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.query); err == nil || !strings.Contains(err.Error(), "unsupported axis following-sibling::") {
				t.Fatalf("Parse(%q) = %v, want an error naming the following-sibling axis", c.query, err)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"book",            // missing leading slash
		"/book[",          // unterminated predicate
		"/book[./]",       // missing name
		"/book[./a='x]",   // unterminated literal
		"/book]",          // trailing garbage
		"/book[.]",        // empty relative path
		"/book[a]",        // predicate must start with .
		"/book[./a and]",  // dangling and
		"//",              // missing tag
		"/book[./a = x ]", // unquoted value
		"/book[./a]extra", // trailing after predicates
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{q1XPath, q2XPath, q3XPath, bookXPath, book2XPath} {
		q := MustParse(s)
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", q.String(), s, err)
		}
		if q2.Size() != q.Size() {
			t.Fatalf("round trip size changed: %q -> %q", s, q.String())
		}
		for i := range q.Nodes {
			a, b := q.Nodes[i], q2.Nodes[i]
			if a.Tag != b.Tag || a.Value != b.Value || a.Axis != b.Axis || a.Parent != b.Parent {
				t.Fatalf("round trip node %d: %+v vs %+v", i, a, b)
			}
		}
	}
}

func TestIsDescendant(t *testing.T) {
	q := MustParse(q3XPath)
	// text is a descendant of item (0) and mailbox; bold is a descendant
	// of text; item is no one's descendant.
	var textID, boldID int
	for _, n := range q.Nodes {
		switch n.Tag {
		case "text":
			textID = n.ID
		case "bold":
			boldID = n.ID
		}
	}
	if !q.IsDescendant(textID, 0) || !q.IsDescendant(boldID, textID) {
		t.Fatal("IsDescendant failed on true cases")
	}
	if q.IsDescendant(0, textID) || q.IsDescendant(textID, textID) {
		t.Fatal("IsDescendant failed on false cases")
	}
}

func TestAxisBetween(t *testing.T) {
	q := MustParse(q2XPath)
	// item -> description is pc; item -> parlist composes pc∘pc = ad;
	// self composition is Self.
	if got := q.AxisBetween(0, 1); got != dewey.Child {
		t.Fatalf("item->description = %v, want pc", got)
	}
	if got := q.AxisBetween(0, 2); got != dewey.Descendant {
		t.Fatalf("item->parlist = %v, want ad", got)
	}
	if got := q.AxisBetween(0, 0); got != dewey.Self {
		t.Fatalf("self = %v", got)
	}
	// ad anywhere on the path forces ad.
	qb := MustParse(book2XPath)
	var nameID int
	for _, n := range qb.Nodes {
		if n.Tag == "name" {
			nameID = n.ID
		}
	}
	if got := qb.AxisBetween(0, nameID); got != dewey.Descendant {
		t.Fatalf("book->name via ad = %v, want ad", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AxisBetween on non-descendant should panic")
		}
	}()
	q.AxisBetween(1, 3) // description is not an ancestor of mailbox
}

func TestPathToRoot(t *testing.T) {
	q := MustParse(q2XPath)
	path := q.PathToRoot(2) // parlist -> description -> item
	want := []int{2, 1, 0}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestServerOrders(t *testing.T) {
	q := MustParse(q2XPath) // 6 nodes -> 5 non-root -> 120 permutations
	orders := q.ServerOrders()
	if len(orders) != 120 {
		t.Fatalf("orders = %d, want 120 (paper Section 6.3.2)", len(orders))
	}
	seen := make(map[string]bool)
	for _, o := range orders {
		if len(o) != 5 {
			t.Fatalf("order length = %d", len(o))
		}
		key := ""
		mask := 0
		for _, id := range o {
			key += string(rune('0' + id))
			mask |= 1 << id
		}
		if mask != 0b111110 {
			t.Fatalf("order %v is not a permutation of 1..5", o)
		}
		if seen[key] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[key] = true
	}
}

func TestValidate(t *testing.T) {
	q := New("a", dewey.Child)
	q.Add(0, "b", dewey.Descendant)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	// Broken parent link.
	q2 := New("a", dewey.Child)
	q2.Nodes = append(q2.Nodes, &Node{ID: 1, Tag: "b", Axis: dewey.Child, Parent: 0})
	if err := q2.Validate(); err == nil || !strings.Contains(err.Error(), "child list") {
		t.Fatalf("expected child-list error, got %v", err)
	}
	// Empty tag.
	q3 := New("", dewey.Child)
	if err := q3.Validate(); err == nil {
		t.Fatal("empty tag should fail")
	}
	// Root with an axis other than pc or ad.
	q4 := New("a", dewey.Self)
	if err := q4.Validate(); err == nil {
		t.Fatal("self-axis root should fail")
	}
	// Empty query.
	q5 := &Query{}
	if err := q5.Validate(); err == nil {
		t.Fatal("empty query should fail")
	}
}

func TestClone(t *testing.T) {
	q := MustParse(q2XPath)
	c := q.Clone()
	c.Nodes[1].Tag = "CHANGED"
	c.Nodes[0].Children[0] = 99
	if q.Nodes[1].Tag == "CHANGED" || q.Nodes[0].Children[0] == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}
