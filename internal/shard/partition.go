// Package shard implements Whirlpool's sharded execution layer: one
// document forest is partitioned into P disjoint shards of complete
// subtrees, each with its own index.Index and per-shard engine, and the
// shards evaluate a query concurrently against a single shared global
// top-k set (core.SharedTopK). A high-scoring answer found on one shard
// immediately raises the currentTopK threshold every other shard prunes
// against, so the paper's adaptive-pruning insight (Section 5)
// parallelizes without weakening: the shared threshold is at all times a
// lower bound on the true global k-th best score, and results merge
// deterministically (score descending, document order ascending).
package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// splitFactor oversizes the unit pool relative to the shard count so the
// longest-processing-time assignment can balance shards even when
// subtree sizes are skewed.
const splitFactor = 4

// Part is one shard of a partitioned corpus: a set of complete subtrees
// ("units") with their own postings index. The part's view document
// shares the corpus's nodes — Dewey IDs and preorder ordinals stay
// global — so every structural probe anchored inside the part returns
// exactly what a whole-document index would.
type Part struct {
	// ID is the shard number, 0-based.
	ID int
	// Units are the subtree roots assigned to this shard, in document
	// order.
	Units []*xmltree.Node
	// Doc is the part's view: Roots are the units, Nodes their subtrees
	// in global preorder. Node ordinals are NOT re-numbered.
	Doc *xmltree.Document
	// Ix is the part's access path: an index.Index built over the view
	// (Split), or a snapshot-backed source serving the same probes from
	// mapped postings (FromLayout).
	Ix index.Source
	// NodeCount is the number of nodes in the part.
	NodeCount int
}

// Corpus is a partitioned document forest. It implements index.Source
// over the whole forest (merging across parts); ShardSources is the
// partition the per-shard engines run over.
type Corpus struct {
	doc   *xmltree.Document
	parts []*Part
	// spine holds the interior nodes that were cut to expose their
	// children as units: the ancestors of every unit, in document order.
	// Their (small) residual forest is evaluated by a dedicated spine
	// sub-source, since their subtrees span parts.
	spine      []*xmltree.Node
	spineByTag map[string][]*xmltree.Node
	// homes locates a node's shard: unit-root ordinal -> part ID, spine
	// ordinal -> -1. Every document node resolves by walking to its
	// nearest mapped ancestor.
	homes map[int]int

	// merged caches merged (tag, value test) postings; it locks itself.
	merged *lru.Cache[postingKey, []*xmltree.Node]

	mu  sync.Mutex
	syn *synopsis.Synopsis // memoized corpus synopsis (see synopsis.go)
}

// postingKey identifies one cached (tag, value test) posting list; the
// value comes from the request, so the cache it keys is bounded.
type postingKey struct{ tag, op, value string }

// Split partitions doc into p shards of complete subtrees. The unit pool
// starts as the forest roots; while it holds fewer than splitFactor*p
// units, the largest unit with children is cut — moved to the spine, its
// children promoted to units — so even a single-rooted document (an
// XMark site) yields enough units to balance. Units are then assigned to
// shards longest-processing-time first. Part indexes are built in
// parallel, one goroutine per part.
func Split(doc *xmltree.Document, p int) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	if p < 1 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 1, got %d", p)
	}
	for i, n := range doc.Nodes {
		if n.Ord != i {
			return nil, fmt.Errorf("shard: document is not renumbered (node %d has ord %d)", i, n.Ord)
		}
	}
	sizes := subtreeSizes(doc)
	units, spine := cut(doc, p, sizes)
	c := &Corpus{
		doc:        doc,
		spine:      spine,
		spineByTag: make(map[string][]*xmltree.Node),
		homes:      make(map[int]int),
		merged:     lru.New[postingKey, []*xmltree.Node](lru.PostingsCap),
	}
	for _, s := range spine {
		c.spineByTag[s.Tag] = append(c.spineByTag[s.Tag], s)
		c.homes[s.Ord] = -1
	}
	c.parts = assign(units, sizes, p)
	for _, part := range c.parts {
		for _, u := range part.Units {
			c.homes[u.Ord] = part.ID
		}
	}
	// Build the per-part views and indexes in parallel — the sharded
	// replacement for one sequential whole-document index.Build.
	var wg sync.WaitGroup
	for _, part := range c.parts {
		wg.Add(1)
		go func(part *Part) {
			defer wg.Done()
			part.Doc = viewDoc(part.Units)
			part.NodeCount = len(part.Doc.Nodes)
			part.Ix = index.Build(part.Doc)
		}(part)
	}
	wg.Wait()
	return c, nil
}

// subtreeSizes computes the subtree node count per ordinal in one
// reverse-preorder pass: children follow their parent in preorder, so
// iterating the slice backwards sees every child before its parent.
func subtreeSizes(doc *xmltree.Document) []int {
	sizes := make([]int, len(doc.Nodes))
	for i := len(doc.Nodes) - 1; i >= 0; i-- {
		n := doc.Nodes[i]
		s := 1
		for _, ch := range n.Children {
			s += sizes[ch.Ord]
		}
		sizes[n.Ord] = s
	}
	return sizes
}

// cut grows the unit pool: starting from the forest roots, repeatedly
// move the largest unit that has children to the spine and promote its
// children to units. Cutting continues until the pool holds at least
// splitFactor*p units AND no single unit exceeds a shard's fair share
// (total/p nodes) — a pool that merely reaches the size target can
// still hide one dominant subtree that forces the shard it lands on to
// ~2-3x the mean load, which is exactly the 4-shard skew anomaly the
// earlier size-only stop produced on XMark. The largest-unit pick
// tie-breaks on the smaller preorder ordinal, so the cut sequence is a
// pure function of the document and p, never of the pool's mutation
// history. The iteration cap bounds pathological deep chains where each
// cut nets zero or one new unit.
func cut(doc *xmltree.Document, p int, sizes []int) (units, spine []*xmltree.Node) {
	units = append(units, doc.Roots...)
	target := splitFactor * p
	if p == 1 {
		// One shard: no parallelism to feed, keep the forest whole.
		return units, nil
	}
	total := len(doc.Nodes)
	for iter := 0; iter < 10*target; iter++ {
		bi := -1
		for i, u := range units {
			if len(u.Children) == 0 {
				continue
			}
			if bi == -1 ||
				sizes[u.Ord] > sizes[units[bi].Ord] ||
				(sizes[u.Ord] == sizes[units[bi].Ord] && u.Ord < units[bi].Ord) {
				bi = i
			}
		}
		if bi == -1 {
			break // every unit is a leaf
		}
		if len(units) >= target && sizes[units[bi].Ord]*p <= total {
			break // enough units, and none dominates a fair share
		}
		u := units[bi]
		units = append(units[:bi], units[bi+1:]...)
		spine = append(spine, u)
		units = append(units, u.Children...)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Ord < units[j].Ord })
	sort.Slice(spine, func(i, j int) bool { return spine[i].Ord < spine[j].Ord })
	return units, spine
}

// assign distributes units over p parts, largest first to the currently
// lightest part (LPT). Ties break on document order, so the layout is a
// pure function of the document and p.
func assign(units []*xmltree.Node, sizes []int, p int) []*Part {
	order := append([]*xmltree.Node(nil), units...)
	sort.Slice(order, func(i, j int) bool {
		si, sj := sizes[order[i].Ord], sizes[order[j].Ord]
		if si != sj {
			return si > sj
		}
		return order[i].Ord < order[j].Ord
	})
	parts := make([]*Part, p)
	load := make([]int, p)
	for i := range parts {
		parts[i] = &Part{ID: i}
	}
	for _, u := range order {
		best := 0
		for i := 1; i < p; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		parts[best].Units = append(parts[best].Units, u)
		load[best] += sizes[u.Ord]
	}
	for _, part := range parts {
		sort.Slice(part.Units, func(i, j int) bool { return part.Units[i].Ord < part.Units[j].Ord })
	}
	return parts
}

// viewDoc builds a part's view document: the units as roots and their
// subtrees as the preorder node slice. Node ordinals and Dewey IDs are
// left untouched — they stay globally unique and globally ordered, which
// is what keeps per-part indexes exact for their own anchors (and makes
// Renumber on a view a corruption; none is ever called).
func viewDoc(units []*xmltree.Node) *xmltree.Document {
	view := &xmltree.Document{Roots: units}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		view.Nodes = append(view.Nodes, n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, u := range units {
		walk(u)
	}
	return view
}

// Parts returns the partition, shard order.
func (c *Corpus) Parts() []*Part { return c.parts }

// Spine returns the cut interior nodes, document order.
func (c *Corpus) Spine() []*xmltree.Node { return c.spine }

// Doc returns the underlying whole document.
func (c *Corpus) Doc() *xmltree.Document { return c.doc }

// PartInfo describes one shard's share of the corpus for layout
// reporting (whirlpoold /stats, whirlbench tables).
type PartInfo struct {
	Shard     int `json:"shard"`
	Units     int `json:"units"`
	NodeCount int `json:"nodes"`
}

// Layout returns the per-shard unit and node counts plus the spine size.
func (c *Corpus) Layout() (parts []PartInfo, spineNodes int) {
	for _, p := range c.parts {
		parts = append(parts, PartInfo{Shard: p.ID, Units: len(p.Units), NodeCount: p.NodeCount})
	}
	return parts, len(c.spine)
}
