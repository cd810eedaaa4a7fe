package shard

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// FromLayout rebuilds a Corpus from a stored partition layout — the
// spine ordinals and each part's unit-root ordinals, as produced by a
// previous Split — without re-running the cut/assign passes. sources
// optionally supplies each part's access path (e.g. snapshot-backed
// sources serving probes from mapped postings); when nil, per-part
// indexes are built from the views, which still skips partitioning.
//
// The layout is validated against doc: ordinals must be in range, and
// the spine plus the unit subtrees must cover every node exactly once —
// a layout saved for a different document fails here instead of
// corrupting query answers.
func FromLayout(doc *xmltree.Document, spineOrds []int, unitOrds [][]int, sources []index.Source) (*Corpus, error) {
	if doc == nil {
		return nil, fmt.Errorf("shard: nil document")
	}
	if len(unitOrds) < 1 {
		return nil, fmt.Errorf("shard: layout has no parts")
	}
	if sources != nil && len(sources) != len(unitOrds) {
		return nil, fmt.Errorf("shard: %d sources for %d parts", len(sources), len(unitOrds))
	}
	n := len(doc.Nodes)
	node := func(ord int) (*xmltree.Node, error) {
		if ord < 0 || ord >= n {
			return nil, fmt.Errorf("shard: layout ordinal %d outside the %d-node document", ord, n)
		}
		return doc.Nodes[ord], nil
	}
	c := &Corpus{
		doc:        doc,
		spineByTag: make(map[string][]*xmltree.Node),
		homes:      make(map[int]int),
		merged:     lru.New[postingKey, []*xmltree.Node](lru.PostingsCap),
	}
	covered := 0
	for _, ord := range spineOrds {
		s, err := node(ord)
		if err != nil {
			return nil, err
		}
		if _, dup := c.homes[s.Ord]; dup {
			return nil, fmt.Errorf("shard: layout places node %d twice", s.Ord)
		}
		c.spine = append(c.spine, s)
		c.spineByTag[s.Tag] = append(c.spineByTag[s.Tag], s)
		c.homes[s.Ord] = -1
		covered++
	}
	sizes := subtreeSizes(doc)
	for id, ords := range unitOrds {
		part := &Part{ID: id}
		for _, ord := range ords {
			u, err := node(ord)
			if err != nil {
				return nil, err
			}
			if _, dup := c.homes[u.Ord]; dup {
				return nil, fmt.Errorf("shard: layout places node %d twice", u.Ord)
			}
			part.Units = append(part.Units, u)
			c.homes[u.Ord] = id
			covered += sizes[u.Ord]
		}
		part.Doc = viewDoc(part.Units)
		part.NodeCount = len(part.Doc.Nodes)
		if sources != nil {
			part.Ix = sources[id]
		} else {
			part.Ix = index.Build(part.Doc)
		}
		c.parts = append(c.parts, part)
	}
	if covered != n {
		return nil, fmt.Errorf("shard: layout covers %d of %d nodes", covered, n)
	}
	// Every spine node's parent must itself be on the spine (or be a
	// root), and every unit's parent must be a spine node — the
	// invariants Candidates' home() walk and the spine fold rely on.
	for _, s := range c.spine {
		if s.Parent != nil {
			if h, ok := c.homes[s.Parent.Ord]; !ok || h != -1 {
				return nil, fmt.Errorf("shard: spine node %d hangs off a non-spine parent", s.Ord)
			}
		}
	}
	for _, p := range c.parts {
		for _, u := range p.Units {
			if u.Parent != nil {
				if h, ok := c.homes[u.Parent.Ord]; !ok || h != -1 {
					return nil, fmt.Errorf("shard: unit %d hangs off a non-spine parent", u.Ord)
				}
			}
		}
	}
	return c, nil
}

// SetSynopsis seeds the memoized corpus synopsis — used when a
// persisted synopsis was loaded alongside the layout, so the first
// planner call doesn't pay the parallel build.
func (c *Corpus) SetSynopsis(s *synopsis.Synopsis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syn = s
}
