package synopsis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relax"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func xmarkDoc(t *testing.T, items int) *xmltree.Document {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// randomDoc builds a small document with heavy tag reuse across levels,
// so the same tag appears at many distinct paths and level differences.
func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	b := xmltree.NewBuilder()
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 6 {
			return
		}
		kids := r.Intn(4)
		for i := 0; i < kids; i++ {
			val := ""
			if r.Intn(3) == 0 {
				val = fmt.Sprintf("v%d", r.Intn(3))
			}
			b.Open(tags[r.Intn(len(tags))]).Text(val)
			grow(depth + 1)
			b.Close()
		}
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		b.Root(tags[r.Intn(len(tags))])
		grow(1)
	}
	return b.Doc()
}

func testDocs(t *testing.T) map[string]*xmltree.Document {
	t.Helper()
	docs := map[string]*xmltree.Document{
		"xmark-S": xmarkDoc(t, 60),
		"xmark-M": xmarkDoc(t, 250),
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		docs[fmt.Sprintf("random%d", i)] = randomDoc(r)
	}
	return docs
}

// TestPathCounts recomputes every root-to-node path count by brute
// force and checks the dataguide agrees exactly, plus the node/path
// totals.
func TestPathCounts(t *testing.T) {
	for name, doc := range testDocs(t) {
		t.Run(name, func(t *testing.T) {
			s := Build(doc)
			want := make(map[string]int)
			for _, n := range doc.Nodes {
				var parts []string
				for a := n; a != nil; a = a.Parent {
					parts = append(parts, a.Tag)
				}
				for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
					parts[i], parts[j] = parts[j], parts[i]
				}
				want["/"+strings.Join(parts, "/")]++
			}
			got := make(map[string]int)
			s.WalkPaths(func(path []string, count int) {
				got["/"+strings.Join(path, "/")] = count
			})
			if len(got) != len(want) {
				t.Fatalf("paths = %d, want %d", len(got), len(want))
			}
			for p, c := range want {
				if got[p] != c {
					t.Fatalf("path %s count = %d, want %d", p, got[p], c)
				}
			}
			if s.PathCount() != len(want) {
				t.Fatalf("PathCount = %d, want %d", s.PathCount(), len(want))
			}
			if s.NodeCount() != len(doc.Nodes) {
				t.Fatalf("NodeCount = %d, want %d", s.NodeCount(), len(doc.Nodes))
			}
		})
	}
}

// brutePathStats recomputes PathStats by scanning every anchor's
// descendants — the oracle the dataguide annotations must match.
func brutePathStats(doc *xmltree.Document, anchorTag string, pp relax.PathPredicate, tag string) (st struct{ RootCount, Satisfying, TotalPairs, MaxTF int }) {
	for _, n := range doc.Nodes {
		if n.Tag != anchorTag {
			continue
		}
		st.RootCount++
		tf := 0
		for _, c := range n.Descendants() {
			if c.Tag != tag {
				continue
			}
			if pp.DepthHoldsExact(c.Level() - n.Level()) {
				tf++
			}
		}
		if tf > 0 {
			st.Satisfying++
			st.TotalPairs += tf
			if tf > st.MaxTF {
				st.MaxTF = tf
			}
		}
	}
	return st
}

func allTags(doc *xmltree.Document) []string {
	seen := make(map[string]bool)
	var tags []string
	for _, n := range doc.Nodes {
		if !seen[n.Tag] {
			seen[n.Tag] = true
			tags = append(tags, n.Tag)
		}
	}
	return tags
}

// TestPathStats sweeps (anchor tag, descendant tag, min levels, exact)
// combinations and compares every statistic against the brute-force
// per-anchor scan.
func TestPathStats(t *testing.T) {
	for name, doc := range testDocs(t) {
		t.Run(name, func(t *testing.T) {
			s := Build(doc)
			tags := allTags(doc)
			r := rand.New(rand.NewSource(3))
			type combo struct {
				anchor, tag string
				pp          relax.PathPredicate
			}
			var combos []combo
			for i := 0; i < 200; i++ {
				combos = append(combos, combo{
					anchor: tags[r.Intn(len(tags))],
					tag:    tags[r.Intn(len(tags))],
					pp:     relax.PathPredicate{MinLevels: r.Intn(6), Exact: r.Intn(2) == 0},
				})
			}
			for _, c := range combos {
				want := brutePathStats(doc, c.anchor, c.pp, c.tag)
				got := s.PathStats(c.anchor, c.pp, c.tag)
				if got.RootCount != want.RootCount || got.Satisfying != want.Satisfying ||
					got.TotalPairs != want.TotalPairs || got.MaxTF != want.MaxTF {
					t.Fatalf("PathStats(%s, %v, %s) = %+v, want %+v", c.anchor, c.pp, c.tag, got, want)
				}
			}
		})
	}
}

// TestTagStats checks per-tag counts.
func TestTagStats(t *testing.T) {
	for name, doc := range testDocs(t) {
		t.Run(name, func(t *testing.T) {
			s := Build(doc)
			count := make(map[string]int)
			for _, n := range doc.Nodes {
				count[n.Tag]++
			}
			for tag, c := range count {
				if s.TagCount(tag) != c {
					t.Fatalf("TagCount(%s) = %d, want %d", tag, s.TagCount(tag), c)
				}
			}
			if s.TagCount("no-such-tag") != 0 {
				t.Fatal("absent tag must report zero stats")
			}
		})
	}
}
