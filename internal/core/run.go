package core

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// run is the mutable state of a single evaluation.
type run struct {
	*Engine
	topk *topkSet
	// arena recycles dead matches and their bindings; it belongs to the
	// ParallelRun holding this run (internal/core/arena.go has the
	// ownership rules).
	arena *matchArena
	// roots streams the root server's output (engine.go) over
	// Engine.roots[lo:hi]; the router queue holds a pointer to it while
	// roots remain.
	roots  rootCursor
	lo, hi int
	// at is the cursor's posting pointer per server (rootCursor.absent);
	// it outlives the run in its idle state, so a run allocates none.
	at []int
	// shardID identifies this run within a sharded evaluation sharing
	// topk with other engines (0 for a standalone run). Offers carry it
	// so prunes caused by another shard's threshold can be counted.
	shardID int32
	// sharded is set when sibling shards share topk; standalone runs
	// skip the threshold-source attribution (one atomic load per prune)
	// it exists for.
	sharded bool
	stats   runStats
	ctx     context.Context
	// done is ctx.Done(), fetched once: cancelled polls it per match.
	done <-chan struct{}
	// lastThreshold holds the float bits of the highest currentTopK
	// value already emitted to the trace sink, deduplicating the
	// threshold trajectory. Initialized to -Inf by RunContext.
	lastThreshold atomic.Uint64
	fault         atomic.Pointer[any] // a Whirlpool-M server's first panic (runM)
}

// cancelled reports whether the run's context has been cancelled.
func (r *run) cancelled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

func (r *run) nextSeq() int64 { return r.stats.add(ctrSeq, 1) }

// The run's counters, indexing runStats. ctrSeq is the last match
// sequence number issued, not a Stats field.
const (
	ctrServerOps = iota
	ctrJoinComparisons
	ctrMatchesCreated
	ctrRoots
	ctrPruned
	ctrPrunedRemote
	ctrSeq
	numCtrs
)

// runStats is a run's instrumentation and its match sequence. A
// Whirlpool-M run is counted by several goroutines at once, so it
// counts in atomics; any other run's counters are its stepper's alone
// and take plain adds. Engine.open fixes the mode.
type runStats struct {
	shared bool
	plain  [numCtrs]int64
	atom   [numCtrs]atomic.Int64
}

// add adds n to counter i and returns the new count.
func (s *runStats) add(i int, n int64) int64 {
	if s.shared {
		return s.atom[i].Add(n)
	}
	s.plain[i] += n
	return s.plain[i]
}

func (s *runStats) load(i int) int64 {
	if s.shared {
		return s.atom[i].Load()
	}
	return s.plain[i]
}

func (s *runStats) snapshot() Stats {
	return Stats{
		ServerOps:       s.load(ctrServerOps),
		JoinComparisons: s.load(ctrJoinComparisons),
		MatchesCreated:  s.load(ctrMatchesCreated),
		Roots:           s.load(ctrRoots),
		Pruned:          s.load(ctrPruned),
		PrunedRemote:    s.load(ctrPrunedRemote),
	}
}

// Trace helpers. Each is nil-checked so the default (no sink) costs one
// predictable branch per call site and never allocates; arguments are
// scalars, so a configured sink sees no per-event allocation either.

func (r *run) traceMatch(kind obs.Lifecycle, n int) {
	if t := r.cfg.Trace; t != nil && n > 0 {
		t.MatchLifecycle(kind, n)
	}
}

func (r *run) traceRoute(m *match, next int) {
	if t := r.cfg.Trace; t != nil {
		t.RouteDecision(m.seq, next)
	}
}

func (r *run) traceDepth(server, depth int) {
	if t := r.cfg.Trace; t != nil {
		t.QueueDepth(server, depth)
	}
}

// prune discards n partial matches — one popped or freshly extended
// match, or every root the cursor had left when it was cut — keeping
// the counters and the trace in step; why is the verdict that dropped
// them. A prune is "remote" when it is against currentTopK and the
// current threshold was produced by an entry offered from another shard
// — the cross-shard pruning the sharded execution layer exists to
// create. A dominated match is pruned by its own root's entry, which
// only its own shard offers, so it is never remote. Standalone runs
// have no sibling shards, so they skip the threshold-source load
// entirely (PrunedRemote is 0 by definition).
func (r *run) prune(n int, why verdict) {
	r.stats.add(ctrPruned, int64(n))
	if r.sharded && why == belowTopK {
		if src := r.topk.thresholdSrc(); src >= 0 && src != r.shardID {
			r.stats.add(ctrPrunedRemote, int64(n))
		}
	}
	r.traceMatch(obs.MatchesPruned, n)
}

// traceThreshold emits the prune-threshold trajectory: each call
// forwards the current threshold to the sink iff it exceeds the last
// emitted value. The exact >= comparison is deliberate — it
// deduplicates repeats of the same float, not a score decision — and
// the CAS keeps concurrent Whirlpool-M emitters from double-reporting
// one value (trajectory order across goroutines stays best-effort).
func (r *run) traceThreshold() {
	sink := r.cfg.Trace
	if sink == nil {
		return
	}
	t, ok := r.topk.threshold()
	if !ok {
		return
	}
	old := r.lastThreshold.Load()
	for math.Float64frombits(old) < t {
		if r.lastThreshold.CompareAndSwap(old, math.Float64bits(t)) {
			sink.Threshold(t)
			return
		}
		old = r.lastThreshold.Load()
	}
}

// checkTopK implements Section 5.2.2's checkTopK: offer the match's
// guaranteed score to the top-k set, then decide whether the match stays
// alive. Complete matches never stay alive (they are done); partial ones
// die when prunable, which reuses the offer's verdict on the root's
// entry when there was an offer.
func (r *run) checkTopK(m *match) (alive bool) {
	complete := m.complete(r.allVisited)
	seen := unchecked
	if complete || r.guaranteedPartial() {
		seen = r.topk.offer(m, r.shardID)
		r.traceThreshold()
	}
	if complete {
		r.traceMatch(obs.MatchesCompleted, 1)
		return false
	}
	if why := r.prunable(m, seen); why != survives {
		r.prune(1, why)
		return false
	}
	return true
}

// pruneEps absorbs floating-point noise in the ≤ comparison below.
const pruneEps = 1e-12

// verdict says whether a partial match can still improve the top-k set,
// and if not, why (run.prunable).
type verdict uint8

const (
	survives  verdict = iota
	belowTopK         // it cannot beat currentTopK (Section 5.2.2)
	dominated         // its root's own entry dominates it (topkEntry.dominance)
	unchecked         // its root's entry is still to be looked up
)

// prunable decides m: belowTopK when its maximum possible final score
// does not exceed currentTopK and, on a tie, its root comes after the
// k-th root, which a tying match before it would displace (see
// topkSet.thrRoot); otherwise, unless Experiment.PaperRoots keeps the
// paper's threshold-only pruning, dominated when its root's entry
// dominates it. seen is the verdict an offer of m has just returned
// (checkTopK), or unchecked for one more lookup of the root.
func (r *run) prunable(m *match, seen verdict) verdict {
	t, ok := r.topk.threshold()
	switch {
	case ok && m.maxFinal <= t+pruneEps && (m.maxFinal < t-pruneEps || r.topk.after(m.bindings[0])):
		return belowTopK
	case r.x.PaperRoots:
		return survives
	case seen == unchecked:
		return r.topk.dominance(m)
	}
	return seen
}

// nextServer implements the routing decision (Section 6.1.4) for the
// match's unvisited servers whose pattern parent is visited (see
// Engine.parentBit).
func (r *run) nextServer(m *match) int {
	switch r.cfg.Routing {
	case RoutingStatic:
		for _, id := range r.order {
			if r.routable(m, id) {
				return id
			}
		}
	case RoutingMaxScore, RoutingMinScore:
		best, bestVal := -1, 0.0
		for _, id := range r.order {
			if !r.routable(m, id) {
				continue
			}
			v := r.expContrib[id] * r.satisfyProb[id]
			if best == -1 ||
				(r.cfg.Routing == RoutingMaxScore && v > bestVal) ||
				(r.cfg.Routing == RoutingMinScore && v < bestVal) {
				best, bestVal = id, v
			}
		}
		return best
	case RoutingMinAlive:
		// One atomic threshold load per routing decision: currentTopK is
		// memoized here instead of re-read inside estimateAliveAt for
		// every candidate server.
		t, ok := r.topk.threshold()
		best, bestVal := -1, 0.0
		for _, id := range r.order {
			if !r.routable(m, id) {
				continue
			}
			v := r.estimateAliveAt(m, id, t, ok)
			if best == -1 || v < bestVal {
				best, bestVal = id, v
			}
		}
		return best
	}
	return -1
}

// routable reports whether m may visit server id next: not yet visited,
// and its pattern parent visited when parents go first.
func (r *run) routable(m *match, id int) bool {
	return !m.isVisited(id) && m.visited&r.parentBit[id] == r.parentBit[id]
}

// estimateAliveAt predicts how many extensions of m would survive
// pruning after processing at server id — the min_alive_partial_matches
// cost model: expected fanout × the fraction of the contribution range
// that keeps the extension's maximum possible final score above
// currentTopK, plus the survival of the null (leaf-deleted) extension
// when the server is expected to find nothing. The threshold is the
// caller's snapshot, so nextServer's candidate loop loads currentTopK
// once.
func (r *run) estimateAliveAt(m *match, id int, t float64, ok bool) float64 {
	maxC, minC := r.maxContrib[id], r.minContrib[id]
	pSat, fan := r.satisfyProb[id], r.fanout[id]
	frac := 1.0
	nullSurvives := 1.0
	if ok {
		need := t - m.maxFinal + maxC // minimum contribution to survive
		switch {
		case need <= minC:
			frac = 1
		case need > maxC:
			frac = 0
		case maxC > minC:
			frac = (maxC - need) / (maxC - minC)
		default:
			frac = 0
		}
		if m.maxFinal-maxC < t {
			nullSurvives = 0
		}
	}
	return pSat*fan*frac + (1-pSat)*nullSurvives
}
