package xmark

import (
	"bytes"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/xmltree"
)

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, Options{Seed: 42, Items: 30}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, Options{Seed: 42, Items: 30}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed must generate identical documents")
	}
	var c bytes.Buffer
	if err := Write(&c, Options{Seed: 43, Items: 30}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateParses(t *testing.T) {
	doc, err := Generate(Options{Seed: 1, Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	if got := len(ix.Nodes("item")); got != 50 {
		t.Fatalf("items = %d, want 50", got)
	}
	// Every item has a name and a description (other sections add their
	// own, so count by parent).
	itemNames, itemDescs := 0, 0
	for _, n := range ix.Nodes("name") {
		if n.Parent.Tag == "item" {
			itemNames++
		}
	}
	for _, d := range ix.Nodes("description") {
		if d.Parent.Tag == "item" {
			itemDescs++
		}
	}
	if itemNames != 50 || itemDescs != 50 {
		t.Fatalf("item names = %d, item descriptions = %d", itemNames, itemDescs)
	}
	// The full XMark site sections are present with valid references.
	for _, tag := range []string{"category", "person", "open_auction", "closed_auction", "itemref", "personref"} {
		if len(ix.Nodes(tag)) == 0 {
			t.Fatalf("missing section element %s", tag)
		}
	}
	items := make(map[string]bool)
	for _, it := range ix.Nodes("item") {
		for _, c := range it.Children {
			if c.Tag == "@id" {
				items[c.Value] = true
			}
		}
	}
	for _, ref := range ix.Nodes("itemref") {
		for _, c := range ref.Children {
			if c.Tag == "@item" && !items[c.Value] {
				t.Fatalf("dangling itemref %s", c.Value)
			}
		}
	}
}

func TestGenerateStructuralFeatures(t *testing.T) {
	doc, err := Generate(Options{Seed: 7, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	// Recursive parlists: some parlist must contain a nested parlist.
	nested := 0
	for _, p := range ix.Nodes("parlist") {
		nested += len(ix.AppendCandidates(nil, p, dewey.Descendant, "parlist", index.ValueEq("")))
	}
	if nested == 0 {
		t.Fatal("no recursive parlists generated (edge generalization unexercised)")
	}
	// Optional incategory: some items have one, some do not.
	withCat := 0
	for _, it := range ix.Nodes("item") {
		if len(ix.AppendCandidates(nil, it, dewey.Descendant, "incategory", index.ValueEq(""))) > 0 {
			withCat++
		}
	}
	if withCat == 0 || withCat == 200 {
		t.Fatalf("incategory satisfying = %d; must be optional", withCat)
	}
	// Shared text: text appears under both mail and listitem.
	underMail, underListitem := 0, 0
	for _, txt := range ix.Nodes("text") {
		switch txt.Parent.Tag {
		case "mail":
			underMail++
		case "listitem":
			underListitem++
		}
	}
	if underMail == 0 || underListitem == 0 {
		t.Fatalf("text sharing broken: mail=%d listitem=%d", underMail, underListitem)
	}
}

// Scores compare exactly: answers must clear the exact zero-score bar.
func TestPaperQueriesHaveMatches(t *testing.T) {
	doc, err := Generate(Options{Seed: 3, Items: 300})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	}
	for _, xp := range queries {
		q := pattern.MustParse(xp)
		s := score.NewTFIDF(ix, q, score.Sparse)
		// Each query must have at least one exact match in a document of
		// this size — the structural probabilities guarantee it
		// overwhelmingly.
		exact := 0
		for _, item := range ix.Nodes("item") {
			if score.AnswerScore(ix, q, s, item.Ord) >= float64(q.Size())-1e-9 {
				exact++
			}
		}
		if exact == 0 {
			t.Errorf("query %s has no exact matches in 300 items", xp)
		}
	}
}

func TestGenerateBytesCalibration(t *testing.T) {
	for _, target := range []int{50_000, 200_000} {
		doc, size, err := GenerateBytes(11, target)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(size) / float64(target)
		if ratio < 0.8 || ratio > 1.2 {
			t.Fatalf("target %d: generated %d bytes (ratio %.2f)", target, size, ratio)
		}
		if doc.Size() == 0 {
			t.Fatal("empty document")
		}
	}
}

func TestGenerateZeroItems(t *testing.T) {
	doc, err := Generate(Options{Seed: 1, Items: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Roots) != 1 || doc.Roots[0].Tag != "site" {
		t.Fatal("zero-item document should still be a site")
	}
}

func TestWriteRoundTripsThroughSerializer(t *testing.T) {
	doc, err := Generate(Options{Seed: 5, Items: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := xmltree.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Size() != doc.Size() {
		t.Fatalf("round trip size %d != %d", doc2.Size(), doc.Size())
	}
}
