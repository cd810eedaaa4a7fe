// Package shard implements Whirlpool's sharded execution layer: one
// document forest is partitioned into P disjoint shards of complete
// subtrees, each a view of the corpus's one index.Source with its own
// engine, and the shards evaluate a query concurrently against a single
// shared global top-k set (core.SharedTopK). A high-scoring answer found
// on one shard immediately raises the currentTopK threshold every other
// shard prunes against, so the paper's adaptive-pruning insight
// (Section 5) parallelizes without weakening: the shared threshold is at
// all times a lower bound on the true global k-th best score, and
// results merge deterministically (score descending, document order
// ascending).
package shard

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// splitFactor oversizes the unit pool relative to the shard count so the
// longest-processing-time assignment can balance shards even when
// subtree sizes are skewed.
const splitFactor = 4

// Part is one shard of a partitioned corpus: a set of complete subtrees
// ("units") of the one document.
type Part struct {
	// ID is the shard number, 0-based.
	ID int
	// Units are the subtree roots assigned to this shard, in document
	// order.
	Units []*xmltree.Node
	// NodeCount is the number of nodes in the part.
	NodeCount int
}

// Corpus is a document forest, its one access path and a partition of
// its nodes. It is an index.Source only by embedding that access path:
// a probe on the corpus is a probe on the whole. ShardSources is the
// partition the per-shard engines run over.
type Corpus struct {
	index.Source
	parts []*Part
	// spine holds the interior nodes that were cut to expose their
	// children as units: the ancestors of every unit, in document order.
	// Their subtrees span parts, so they form one more member.
	spine []*xmltree.Node
	// members are the partition as views of Source: one per part, then
	// the spine's when there is one.
	members []*index.View
}

// Split is Partition over a freshly built index of doc.
func Split(doc *xmltree.Document, p int) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	return Partition(doc, index.Build(doc), p)
}

// Partition divides doc, served by ix, into p shards of complete
// subtrees. The unit pool starts as the forest roots; the largest unit
// with children is cut — moved to the spine, its children promoted to
// units — until the pool holds splitFactor*p units and none exceeds a
// shard's fair share, so even a single-rooted document (an XMark site)
// balances. Units are then assigned to shards longest-processing-time
// first. The result is one ordinal → member table over ix: nothing is
// indexed a second time.
func Partition(doc *xmltree.Document, ix index.Source, p int) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	if p < 1 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 1, got %d", p)
	}
	for i, n := range doc.Nodes {
		if int(n.Ord) != i {
			return nil, fmt.Errorf("shard: document is not renumbered (node %d has ord %d)", i, n.Ord)
		}
	}
	sizes := subtreeSizes(doc)
	units, spine := cut(doc, p, sizes)
	c := &Corpus{Source: ix, spine: spine, parts: assign(units, sizes, p)}
	// A unit's subtree is the ordinal interval [Ord, End]; the spine is
	// member p.
	owner := make([]int32, len(doc.Nodes))
	for _, part := range c.parts {
		for _, u := range part.Units {
			part.NodeCount += sizes[u.Ord]
			for o := u.Ord; o <= u.End; o++ {
				owner[o] = int32(part.ID)
			}
		}
	}
	for _, s := range spine {
		owner[s.Ord] = int32(p)
	}
	members := p
	if len(spine) > 0 {
		members++
	}
	for m := 0; m < members; m++ {
		c.members = append(c.members, index.NewView(ix, owner, m))
	}
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

// Parts returns the partition, shard order.
func (c *Corpus) Parts() []*Part { return c.parts }

// Spine returns the cut interior nodes, document order.
func (c *Corpus) Spine() []*xmltree.Node { return c.spine }

// ShardSources returns the partition NewEngines runs one engine over
// each member of: one view per part, plus — when interior nodes were
// cut — the spine's, last. Together the members' root sets partition
// the corpus's; a part's probes stay inside its own subtrees, the
// spine's reach into the parts below it.
func (c *Corpus) ShardSources() []*index.View { return c.members }

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
