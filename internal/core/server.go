package core

import (
	"repro/internal/obs"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Scratch is one worker goroutine's reusable buffers: process appends
// probed candidates into cands and spawned extensions into exts, and
// the step loops keep their batch and survivor slices here. All retain
// their grown capacity, so a worker's steady state allocates nothing.
// The slice process returns aliases exts — the caller must consume it
// before its next process call with the same Scratch (every algorithm
// does: extensions are checked and enqueued immediately). A Scratch
// must not be shared between goroutines; matches held in its slices are
// owned by that worker until released or re-queued.
type Scratch struct {
	cands             []*xmltree.Node
	exts, batch, surv []*match
}

// NewScratch returns an empty Scratch. Each pool worker allocates one
// up front; the steady-state step loop then allocates nothing.
func NewScratch() *Scratch { return &Scratch{} }

// process runs one server operation (Section 5.2.1): the partial match m
// arrives at server sid, the server probes the index for candidates
// satisfying the (relaxed) structural predicate against the bound root,
// validates each candidate through the conditional predicate sequence,
// scores it, and spawns extended matches. When no candidate survives, the
// outer-join spawns the null-extended match under leaf deletion;
// otherwise the match dies. m stays owned by the caller: extensions copy
// out of it, so the caller releases it after consuming the result.
// +whirllint:hotpath
func (r *run) process(m *match, sid int, sc *Scratch) []*match {
	e := r.Engine
	r.stats.serverOps.Add(1)
	if e.cfg.OpCost > 0 {
		spin(e.cfg.OpCost)
	}
	plan := e.plans[sid]
	root := m.bindings[0]
	sc.cands = e.probes[sid].Append(sc.cands[:0], root, plan.ProbeAxis())

	exts := sc.exts[:0]
	compared := int64(len(sc.cands)) // one root test per candidate, plus the conds below
	for _, c := range sc.cands {
		structExact := plan.RootPath.HoldsExact(root, c)
		if e.cfg.Relax == relax.None && !structExact {
			continue
		}
		valid := true
		for i := range plan.Conds {
			cond := &plan.Conds[i]
			if !m.isVisited(cond.OtherID) {
				continue
			}
			other := m.bindings[cond.OtherID]
			if other == nil {
				// The related node was relaxed away. A candidate whose
				// direct pattern parent is missing can only attach via
				// subtree promotion.
				if cond.DirectParent && cond.OtherIsAncestor && !e.cfg.Relax.Has(relax.SubtreePromotion) {
					valid = false
					break
				}
				continue
			}
			compared++
			if plan.Check(*cond, c, other) == relax.CondFailed {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		variant := score.Relaxed
		if structExact {
			variant = score.Exact
		}
		contrib := e.cfg.Scorer.Contribution(sid, variant, c)
		exts = append(exts, m.extendInto(r.arena.get(), sid, c, contrib, e.maxContrib[sid], r.nextSeq()))
	}
	r.stats.joinComparisons.Add(compared)
	if len(exts) == 0 {
		if !e.cfg.Relax.Has(relax.LeafDeletion) || !r.nullAllowed(m, sid) {
			sc.exts = exts
			return nil // inner-join semantics: the match dies
		}
		exts = append(exts, m.extendInto(r.arena.get(), sid, nil, 0, e.maxContrib[sid], r.nextSeq()))
	}
	sc.exts = exts
	r.stats.matchesCreated.Add(int64(len(exts)))
	r.traceMatch(obs.MatchesSpawned, len(exts))
	return exts
}

// nullAllowed reports whether the null (leaf-deleted) extension of m at
// server sid is consistent: without subtree promotion, deleting a node
// whose pattern child is already bound would orphan that child.
func (r *run) nullAllowed(m *match, sid int) bool {
	if r.cfg.Relax.Has(relax.SubtreePromotion) {
		return true
	}
	for _, cid := range r.query.Nodes[sid].Children {
		if m.bindings[cid] != nil {
			return false
		}
	}
	return true
}
