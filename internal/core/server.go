package core

import (
	"repro/internal/obs"
	"repro/internal/relax"
	"repro/internal/score"
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
	cands             []int32
	exts, batch, surv []*match
}

// NewScratch returns an empty Scratch for a caller that steps a run
// itself; the steady-state step loop then allocates nothing.
func NewScratch() *Scratch { return &Scratch{} }

// process runs one server operation (Section 5.2.1): the partial match m
// arrives at server sid, the server probes the index for candidates
// satisfying the (relaxed) structural predicate against the bound root,
// validates each candidate through the conditional predicate sequence,
// scores it, and spawns extended matches. When no candidate survives, the
// outer-join spawns the null-extended match under leaf deletion;
// otherwise the match dies. m stays owned by the caller: extensions copy
// out of it, so the caller releases it after consuming the result.
func (r *run) process(m *match, sid int, sc *Scratch) []*match {
	e := r.Engine
	r.stats.add(ctrServerOps, 1)
	if e.x.OpCost > 0 {
		spin(e.x.OpCost)
	}
	plan, doc := e.plans[sid], e.doc
	root := m.bindings[0]
	sc.cands, r.hint[sid] = e.probes[sid].Append(sc.cands[:0], root, plan.ProbeAxis(), r.hint[sid])

	exts := sc.exts[:0]
	compared := int64(len(sc.cands)) // one root test per candidate, plus the conds below
	for _, c := range sc.cands {
		structExact := plan.RootPath.HoldsExact(doc, root, c)
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
			if other < 0 {
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
			if plan.Check(doc, *cond, c, other) == relax.CondFailed {
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
	r.stats.add(ctrJoinComparisons, compared)
	if len(exts) == 0 {
		if !e.cfg.Relax.Has(relax.LeafDeletion) {
			sc.exts = exts
			return nil // inner-join semantics: the match dies
		}
		exts = append(exts, m.extendInto(r.arena.get(), sid, -1, 0, e.maxContrib[sid], r.nextSeq()))
	}
	sc.exts = exts
	r.stats.add(ctrMatchesCreated, int64(len(exts)))
	r.traceMatch(obs.MatchesSpawned, len(exts))
	return exts
}
