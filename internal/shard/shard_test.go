package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/shard"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// randomDoc builds a random forest with a few tags so partitions hit
// uneven subtree shapes, deep chains and repeated tags.
func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	doc := xmltree.NewDocument()
	roots := r.Intn(3) + 1
	for i := 0; i < roots; i++ {
		root := doc.AddRoot("r")
		var grow func(n *xmltree.Node, depth int)
		grow = func(n *xmltree.Node, depth int) {
			if depth > 5 {
				return
			}
			kids := r.Intn(4)
			for j := 0; j < kids; j++ {
				val := ""
				if r.Intn(3) == 0 {
					val = fmt.Sprintf("v%d", r.Intn(3))
				}
				c := doc.AddChild(n, tags[r.Intn(len(tags))], val)
				grow(c, depth+1)
			}
		}
		grow(root, 1)
	}
	doc.Renumber()
	return doc
}

func xmarkDoc(t *testing.T, items int) *xmltree.Document {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSplitPartitionInvariants checks the structural contract: every
// document node lands in exactly one part or on the spine, parts hold
// complete subtrees, ordinals stay global, and postings stay in
// document order.
func TestSplitPartitionInvariants(t *testing.T) {
	docs := map[string]*xmltree.Document{"xmark": xmarkDoc(t, 40)}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		docs[fmt.Sprintf("random%d", i)] = randomDoc(r)
	}
	for name, doc := range docs {
		for _, p := range []int{1, 2, 3, 8, 64} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				c, err := shard.Split(doc, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(c.Parts()); got != p {
					t.Fatalf("parts = %d, want %d", got, p)
				}
				seen := make(map[int32]int) // ord -> count
				for _, s := range c.Spine() {
					seen[s]++
				}
				for _, part := range c.Parts() {
					lastOrd, nodes := int32(-1), 0
					// Complete subtrees: a part's nodes are its units and
					// everything below them.
					for _, o := range part.Units {
						u := doc.Nodes[o]
						for _, n := range append([]*xmltree.Node{u}, u.Descendants()...) {
							seen[n.Ord]++
							nodes++
							if n.Ord <= lastOrd {
								t.Fatalf("part %d not in document order", part.ID)
							}
							lastOrd = n.Ord
							if n != u && n.Parent == nil {
								t.Fatalf("descendant %v lost its parent", n)
							}
						}
					}
					if part.NodeCount != nodes {
						t.Fatalf("part %d NodeCount = %d, want %d", part.ID, part.NodeCount, nodes)
					}
				}
				if len(seen) != doc.Size() {
					t.Fatalf("covered %d of %d nodes", len(seen), doc.Size())
				}
				for ord, n := range seen {
					if n != 1 {
						t.Fatalf("node %d assigned %d times", ord, n)
					}
				}
				// Ordinals must still be the global preorder ones.
				for i, n := range doc.Nodes {
					if int(n.Ord) != i {
						t.Fatalf("global ordinals corrupted at %d", i)
					}
				}
			})
		}
	}
}

// TestSplitBalance asserts the partition is actually balanced, not just
// structurally valid: on an XMark document the node-count skew
// (largest part over the mean) stays within 2.0 for every shard count
// the pinned benchmark sweeps. This pins the fix for the 4-shard
// anomaly where cut() stopped at the unit-count target while one
// dominant subtree still exceeded a shard's fair share, forcing its
// shard to ~2.6x the mean load.
func TestSplitBalance(t *testing.T) {
	doc := xmarkDoc(t, 200)
	for _, p := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c, err := shard.Split(doc, p)
			if err != nil {
				t.Fatal(err)
			}
			total, max := 0, 0
			for _, part := range c.Parts() {
				total += part.NodeCount
				if part.NodeCount > max {
					max = part.NodeCount
				}
			}
			mean := float64(total) / float64(p)
			if mean == 0 {
				t.Fatal("empty partition")
			}
			if skew := float64(max) / mean; skew > 2.0 {
				layout, spine := c.Layout()
				t.Fatalf("node-count skew %.2f > 2.0 (layout %+v, spine %d)", skew, layout, spine)
			}
		})
	}
}

// TestSplitDeterministic asserts the layout is a pure function of the
// document and p: the largest-unit cut order tie-breaks on preorder
// ordinal, so repeated Splits must agree unit for unit.
func TestSplitDeterministic(t *testing.T) {
	doc := xmarkDoc(t, 120)
	for _, p := range []int{2, 4, 8} {
		a, err := shard.Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shard.Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Parts() {
			pa, pb := a.Parts()[i], b.Parts()[i]
			if len(pa.Units) != len(pb.Units) {
				t.Fatalf("p=%d part %d: %d vs %d units", p, i, len(pa.Units), len(pb.Units))
			}
			for j := range pa.Units {
				if pa.Units[j] != pb.Units[j] {
					t.Fatalf("p=%d part %d unit %d: ord %d vs %d", p, i, j, pa.Units[j], pb.Units[j])
				}
			}
		}
	}
}

// TestSplitSingleShardKeepsForestWhole ensures p=1 does not cut anything:
// the single part's roots are the document roots.
func TestSplitSingleShardKeepsForestWhole(t *testing.T) {
	doc := xmarkDoc(t, 20)
	c, err := shard.Split(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spine()) != 0 {
		t.Fatalf("spine has %d nodes, want 0", len(c.Spine()))
	}
	if got := len(c.Parts()[0].Units); got != len(doc.Roots) {
		t.Fatalf("units = %d, want %d roots", got, len(doc.Roots))
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := shard.Split(nil, 2); err == nil {
		t.Fatal("nil document accepted")
	}
	doc := xmarkDoc(t, 5)
	if _, err := shard.Split(doc, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
}

func TestSplitEmptyDocument(t *testing.T) {
	doc := xmltree.NewDocument()
	c, err := shard.Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes("anything")); got != 0 {
		t.Fatalf("Nodes on empty = %d", got)
	}
}

// TestShardSourcesPartitionRoots checks the ShardSources contract: the
// sub-sources' postings for any tag partition the corpus's.
func TestShardSourcesPartitionRoots(t *testing.T) {
	doc := xmarkDoc(t, 30)
	c, err := shard.Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs := c.ShardSources()
	if len(subs) < 4 {
		t.Fatalf("sub-sources = %d, want ≥ 4", len(subs))
	}
	for _, tag := range doc.Tags() {
		seen := make(map[int32]bool)
		total := 0
		for _, sub := range subs {
			for _, n := range sub.Nodes(tag) {
				if seen[n.Ord] {
					t.Fatalf("tag %q node %d in two sub-sources", tag, n.Ord)
				}
				seen[n.Ord] = true
				total++
			}
		}
		if want := len(c.Nodes(tag)); total != want {
			t.Fatalf("tag %q: sub-sources hold %d nodes, corpus %d", tag, total, want)
		}
	}
}
