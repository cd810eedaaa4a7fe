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
	"slices"
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
	// Units are the ordinals of the subtree roots assigned to this
	// shard, in document order.
	Units []int32
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
	spine []int32
	// members are the partition as views of Source: one per part, then
	// the spine's when there is one.
	members []*index.View
}

// Split is Partition over a freshly built index of doc.
func Split(doc *xmltree.Document, p int) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	return Partition(index.Build(doc), p)
}

// Partition divides the document ix serves into p shards of complete
// subtrees, reading its subtree-size column. The unit pool starts as the
// forest roots; the largest unit with children is cut — moved to the
// spine, its children promoted to units — until the pool holds
// splitFactor*p units and none exceeds a shard's fair share, so even a
// single-rooted document (an XMark site) balances. Units are then
// assigned to shards longest-processing-time first. The result is one
// ordinal → member table over ix: nothing is indexed a second time.
func Partition(ix index.Source, p int) (*Corpus, error) {
	if p < 1 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 1, got %d", p)
	}
	doc := ix.Cols()
	units, spine := cut(doc, p)
	c := &Corpus{Source: ix, spine: spine, parts: assign(doc, units, p)}
	// A unit's subtree is the ordinal interval [u, End(u)]; the spine
	// is member p.
	owner := make([]int32, doc.Len())
	for _, part := range c.parts {
		for _, u := range part.Units {
			part.NodeCount += int(doc.Subtree[u])
			for o := u; o <= doc.End(u); o++ {
				owner[o] = int32(part.ID)
			}
		}
	}
	for _, s := range spine {
		owner[s] = int32(p)
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

// children appends node u's children to dst: from its first child on,
// each next sibling lies one subtree size further.
func children(doc *xmltree.Columns, dst []int32, u int32) []int32 {
	for c := u + 1; c <= doc.End(u); c += int32(doc.Subtree[c]) {
		dst = append(dst, c)
	}
	return dst
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
func cut(doc *xmltree.Columns, p int) (units, spine []int32) {
	for r := int32(0); int(r) < doc.Len(); r += int32(doc.Subtree[r]) {
		units = append(units, r) // the forest roots
	}
	target := splitFactor * p
	if p == 1 {
		// One shard: no parallelism to feed, keep the forest whole.
		return units, nil
	}
	total := doc.Len()
	size := func(u int32) int { return int(doc.Subtree[u]) }
	for iter := 0; iter < 10*target; iter++ {
		bi := -1
		for i, u := range units {
			if size(u) == 1 {
				continue
			}
			if bi == -1 || size(u) > size(units[bi]) || (size(u) == size(units[bi]) && u < units[bi]) {
				bi = i
			}
		}
		if bi == -1 {
			break // every unit is a leaf
		}
		if len(units) >= target && size(units[bi])*p <= total {
			break // enough units, and none dominates a fair share
		}
		u := units[bi]
		units = append(units[:bi], units[bi+1:]...)
		spine = append(spine, u)
		units = children(doc, units, u)
	}
	slices.Sort(units)
	slices.Sort(spine)
	return units, spine
}

// assign distributes units over p parts, largest first to the currently
// lightest part (LPT). Ties break on document order, so the layout is a
// pure function of the document and p.
func assign(doc *xmltree.Columns, units []int32, p int) []*Part {
	order := slices.Clone(units)
	sort.Slice(order, func(i, j int) bool {
		si, sj := doc.Subtree[order[i]], doc.Subtree[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
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
		load[best] += int(doc.Subtree[u])
	}
	for _, part := range parts {
		slices.Sort(part.Units)
	}
	return parts
}

// Parts returns the partition, shard order.
func (c *Corpus) Parts() []*Part { return c.parts }

// Spine returns the ordinals of the cut interior nodes, document order.
func (c *Corpus) Spine() []int32 { return c.spine }

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
