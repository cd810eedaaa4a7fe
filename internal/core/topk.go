package core

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// topkSet is the shared candidate set of the k best (partial or complete)
// matches, at most one per root node (Section 5.1). It provides the
// currentTopK pruning threshold: the k-th best guaranteed score. A score
// is guaranteed when the match's current score is a lower bound on some
// final answer for its root — always true under leaf deletion (the match
// as-is, with every remaining node deleted, is an answer), and true for
// complete matches otherwise; callers enforce that policy by only
// offering guaranteed scores.
//
// One topkSet may be shared by the runs of one engine over disjoint
// ranges of its roots (see SharedTopK): offers carry a shard id so
// pruning can be attributed to a local or remote threshold rise.
type topkSet struct {
	k int
	// floor seeds the threshold (Experiment.Threshold, Figure 3's).
	floor    float64
	hasFloor bool

	// thrBits caches the current threshold as float bits so the hot
	// prunable/estimateAlive paths read it with one atomic load instead
	// of taking mu. NaN is the sentinel for "no threshold yet". Written
	// only in publish, under mu when the set is locked, so plain stores
	// suffice; the cached pair (thrBits, thrRoot) never ranks lower
	// (ranksAbove), so the value falls, if ever, by at most pruneEps.
	thrBits atomic.Uint64
	// thrSrc is the shard whose k-th entry produced the cached
	// threshold, or -1 while the floor (or nothing) governs.
	thrSrc atomic.Int32
	// thrRoot is the k-th entry's root ordinal while that entry governs
	// the threshold, else -1. A match only tying the threshold is
	// prunable iff its root comes after thrRoot (see after), so the
	// answers are the top-k of score descending, root ascending, in any
	// arrival order. publish stores it before thrBits and readers load
	// it after: a threshold pairs with its own k-th root or a later one.
	thrRoot atomic.Int32
	// locked is set for a set several goroutines may offer into (a
	// SharedTopK, which every shard's run offers into from its own pool
	// worker, or a Whirlpool-M run's own set): offer takes mu. Any other
	// run's own set is its stepper's alone. Fixed before the run's first
	// offer.
	locked bool

	mu sync.Mutex
	// best is the open-addressed root ordinal → best known entry table:
	// linear probing over a power-of-two array kept at most half full.
	// Each entry records its slot, so reset clears only the slots the
	// run filled.
	best  []*topkEntry
	nbest int          // occupied slots of best
	top   []*topkEntry // k best entries, sorted desc (score, then root asc)

	// Entry slab: entries and their bindings copies are carved from
	// chunked backing arrays (see newEntry) and kept across reset, so a
	// reused set re-issues them instead of buying new ones. qn is the
	// query's binding width, learned from the first offered match.
	qn   int
	ents []*topkEntry // every entry carved so far, in carve order
	used int          // entries issued since the last reset
}

// entryChunk is how many topkEntry records (and bindings copies) one
// slab allocation covers.
const entryChunk = 64

// topkEntry is one root's best guaranteed answer. It owns its bindings
// slice — offer copies the match's bindings out rather than aliasing
// them, because offered matches are arena-owned (internal/core/arena.go)
// and may be recycled the moment the offering algorithm releases them.
type topkEntry struct {
	rootOrd  int
	score    float64
	bindings []int32 // entry-owned copy, never aliases a match
	src      int32   // the shard that offered it: the root's
	inTop    bool
	pos      int // index in top while inTop
	slot     int // index in best
}

// newTopkSet returns a locked set; Engine.open unlocks an exclusive
// run's own.
func newTopkSet(k int, floor float64, hasFloor bool) *topkSet {
	t := &topkSet{locked: true, best: make([]*topkEntry, 16)}
	t.reset(k, floor, hasFloor)
	return t
}

// reset empties the set for a new run of capacity k, keeping the root
// table, the top slice and every carved entry for reuse. Whatever the
// previous run's caller keeps, answers has already copied out.
func (t *topkSet) reset(k int, floor float64, hasFloor bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.k, t.floor, t.hasFloor = k, floor, hasFloor
	if hasFloor {
		t.thrBits.Store(math.Float64bits(floor))
	} else {
		t.thrBits.Store(math.Float64bits(math.NaN()))
	}
	t.thrSrc.Store(-1)
	t.thrRoot.Store(-1)
	if t.nbest == t.used {
		for _, e := range t.ents[:t.used] {
			t.best[e.slot] = nil
		}
	} else {
		clear(t.best) // newEntry's private entries are in no slab to walk
	}
	t.nbest = 0
	t.top = t.top[:0]
	t.used = 0
}

// find returns root's entry, or nil and the empty slot it would take.
// Fibonacci hashing spreads the preorder ordinals over the table.
// Callers hold t.mu when the set is locked. The probe ends at an empty
// slot: insert keeps the table at most half full.
func (t *topkSet) find(root int) (*topkEntry, int) {
	mask := len(t.best) - 1
	for i := int(uint32(root) * 0x9E3779B9 >> (32 - bits.Len(uint(mask)))); ; i = (i + 1) & mask {
		e := t.best[i]
		if e == nil || e.rootOrd == root {
			return e, i
		}
	}
}

// insert files e, a root find missed, under slot, first doubling the
// table if it would be over half full — amortized: the table doubles,
// and it is kept across reset. Callers hold t.mu when the set is
// locked.
func (t *topkSet) insert(e *topkEntry, slot int) {
	if 2*(t.nbest+1) > len(t.best) {
		old := t.best
		t.best = make([]*topkEntry, 2*len(old))
		for _, o := range old {
			if o != nil {
				_, o.slot = t.find(o.rootOrd)
				t.best[o.slot] = o
			}
		}
		_, slot = t.find(e.rootOrd)
	}
	e.slot = slot
	t.best[slot] = e
	t.nbest++
}

// bindingsLess orders two binding vectors over the same query
// deterministically: lexicographically by document order of the bound
// nodes, with -1 (a relaxed-away binding) after any bound node. The
// preorder ordinal is unique per node, so the order is total on distinct
// vectors; it depends only on the vectors, never on evaluation timing.
func bindingsLess(a, b []int32) bool {
	for i := range a {
		an, bn := a[i], b[i]
		switch {
		case an == bn:
			continue
		case an < 0:
			return false
		case bn < 0:
			return true
		default:
			return an < bn
		}
	}
	return false
}

// ranksAbove reports whether a score for one root or binding vector
// ranks above another's: it is higher by more than pruneEps, or within
// pruneEps of it and before it (earlier is the root ordinal, or
// bindingsLess). Scores within pruneEps are the same score summed in
// another order (a match adds its contributions in the order its
// servers visit it), and prunable, dominance and the root cursor's
// cut already treat them as a tie decided by position; ranking them so
// too keeps which of two near-tied roots answers independent of
// arrival order, shard order and pruning.
func ranksAbove(a, b float64, earlier bool) bool {
	if math.Abs(a-b) > pruneEps {
		return a > b
	}
	return earlier
}

// offer records that root rootOrd is guaranteed to reach at least
// m.score, on behalf of shard src. It keeps the best match per root and
// maintains the top-k slice, both ranked by ranksAbove: across roots by
// the root ordinal, within one by the bindings' document order, for
// deterministic results. It returns dominated when the root's entry,
// after the offer, dominates m (topkEntry.dominance), and survives
// otherwise: checkTopK decides a partial match on the one lookup and,
// on a locked set, the one lock acquisition of its offer.
func (t *topkSet) offer(m *match, src int32) verdict {
	if t.locked {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	rootOrd := m.rootOrd()
	e, slot := t.find(rootOrd)
	switch {
	case e == nil:
		e = t.newEntry(rootOrd, m)
		e.src = src
		t.insert(e, slot)
	case !ranksAbove(m.score, e.score, bindingsLess(m.bindings, e.bindings)):
		return e.dominance(m)
	default:
		e.score = m.score
		copy(e.bindings, m.bindings)
	}
	// m is the root's entry now, which dominates no partial match of its own.
	switch {
	case e.inTop:
		t.fixUp(e.pos)
	case len(t.top) < t.k:
		e.inTop = true
		e.pos = len(t.top)
		t.top = append(t.top, e)
		t.fixUp(e.pos)
	default:
		last := t.top[len(t.top)-1]
		if !ranksAbove(e.score, last.score, e.rootOrd < last.rootOrd) {
			return survives
		}
		last.inTop = false
		e.inTop = true
		e.pos = len(t.top) - 1
		t.top[e.pos] = e
		t.fixUp(e.pos)
	}
	t.publish()
	return survives
}

// dominance is offer's verdict on m without the offer, for a match
// that is not guaranteed (no leaf deletion) or is popped from a queue:
// dominated when its root's entry dominates m, survives when it does
// not or the root has none.
func (t *topkSet) dominance(m *match) verdict {
	if t.locked {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if e, _ := t.find(m.rootOrd()); e != nil {
		return e.dominance(m)
	}
	return survives
}

// dominance reports whether e, the entry of m's root, dominates m: no
// completion of m can displace e, so m cannot change the answers. Entries
// only improve, so a dominated match stays dominated. Either m's maximum
// possible final score is below e's score by more than pruneEps, or it
// ties e's within pruneEps and every completion of m sorts after e's
// bindings or equals them under bindingsLess: walking the query nodes
// from 1, m agrees with e at every node, or the first node where they
// differ is visited in m and later there (a higher ordinal, or missing
// where e is bound), with no node unvisited in m before it — an
// unvisited node could still be bound before e's.
func (e *topkEntry) dominance(m *match) verdict {
	switch {
	case m.maxFinal < e.score-pruneEps:
		return dominated
	case m.maxFinal > e.score+pruneEps:
		return survives
	}
	for i := 1; i < len(m.bindings); i++ {
		if !m.isVisited(i) {
			return survives
		}
		if mn, en := m.bindings[i], e.bindings[i]; mn != en {
			if mn < 0 || en >= 0 && mn > en {
				return dominated
			}
			return survives
		}
	}
	return dominated
}

// newEntry issues an entry — with its entry-owned bindings copy — from
// the set's slab, carving a new chunk when every carved entry is in
// use. Entries live as long as the run (the best table keeps every
// root's record even after eviction from top) and are re-issued after
// reset. Every match offered into one set binds the same query, so the
// binding width qn is fixed after the first offer. It allocates twice
// per entryChunk distinct roots, not per offer. Callers hold t.mu when
// the set is locked.
func (t *topkSet) newEntry(rootOrd int, m *match) *topkEntry {
	if t.qn != len(m.bindings) {
		if t.qn == 0 {
			t.qn = len(m.bindings)
		} else {
			// Defensive: a foreign-width match would corrupt the slab
			// carve; give it a private allocation instead.
			return &topkEntry{
				rootOrd:  rootOrd,
				score:    m.score,
				bindings: append([]int32(nil), m.bindings...),
			}
		}
	}
	if t.used == len(t.ents) {
		ents := make([]topkEntry, entryChunk)
		bnd := make([]int32, entryChunk*t.qn)
		for i := range ents {
			ents[i].bindings = bnd[i*t.qn : (i+1)*t.qn : (i+1)*t.qn]
			t.ents = append(t.ents, &ents[i])
		}
	}
	e := t.ents[t.used]
	t.used++
	e.rootOrd, e.score, e.inTop, e.pos = rootOrd, m.score, false, 0
	copy(e.bindings, m.bindings)
	return e
}

// fixUp restores the sort order after the entry at index i improved its
// score: at most that one entry is out of place, so a single leftward
// insertion pass replaces the former full re-sort. Callers hold t.mu
// when the set is locked.
func (t *topkSet) fixUp(i int) {
	e := t.top[i]
	for i > 0 {
		p := t.top[i-1]
		if ranksAbove(p.score, e.score, p.rootOrd < e.rootOrd) {
			break
		}
		t.top[i] = p
		p.pos = i
		i--
	}
	t.top[i] = e
	e.pos = i
}

// publish refreshes the cached threshold after a mutation of the top-k
// slice. Callers hold t.mu when the set is locked. The k-th entry never
// ranks lower (per-root entries only improve, and replacement requires
// ranking above the old k-th, both by ranksAbove), so the cache is
// monotone in that order: its score falls, if ever, by at most pruneEps
// and only for an earlier root. The floor governs while it is not below
// the k-th score; the k-th entry's shard is recorded as the source only
// when that entry governs the new value.
func (t *topkSet) publish() {
	if len(t.top) < t.k {
		return // the seeded floor (or no threshold) still governs
	}
	kth := t.top[len(t.top)-1]
	v, root := kth.score, int32(kth.rootOrd)
	if t.hasFloor && t.floor >= v {
		v, root = t.floor, -1
	}
	old := math.Float64frombits(t.thrBits.Load())
	if !math.IsNaN(old) && old == v && t.thrRoot.Load() == root {
		return // unchanged (or a repeat of the floor)
	}
	t.thrRoot.Store(root)
	t.thrBits.Store(math.Float64bits(v))
	if root >= 0 {
		t.thrSrc.Store(kth.src)
	}
}

// threshold returns currentTopK: the k-th best guaranteed score, or the
// seeded floor while fewer than k roots are known. ok is false when no
// threshold exists yet (no pruning possible). Lock-free: one atomic load
// of the cache maintained by publish, so the hot pruning paths (and
// remote shards sharing the set) never contend on t.mu.
func (t *topkSet) threshold() (v float64, ok bool) {
	v = math.Float64frombits(t.thrBits.Load())
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// after reports whether root comes after the k-th root of the threshold
// last loaded, so that a match there only tying it cannot enter the set
// (always, while the floor governs). Load the threshold first.
func (t *topkSet) after(root int32) bool { return root > t.thrRoot.Load() }

// thresholdSrc returns the shard whose entry produced the current
// threshold, or -1 while the floor (or nothing) governs.
func (t *topkSet) thresholdSrc() int32 { return t.thrSrc.Load() }

// answers returns the final top-k, best first. Bindings are copied out
// of the entries into one block the answers share: offer overwrites
// entry bindings in place and reset re-issues them, so a snapshot must
// not alias them.
func (t *topkSet) answers() []Answer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Answer, 0, len(t.top))
	flat := make([]int32, 0, len(t.top)*t.qn)
	for _, e := range t.top {
		n := len(flat)
		flat = append(flat, e.bindings...)
		b := flat[n:len(flat):len(flat)]
		out = append(out, Answer{
			Root:     b[0],
			Bindings: b,
			Score:    e.score,
		})
	}
	return out
}

// SharedTopK is a top-k candidate set shared by the shard runs of one
// sharded evaluation: runs of one engine, each over its own range of
// the query's roots. Every run offers into and prunes against the same
// set, so a high-scoring answer found in one range immediately raises
// the threshold used to kill partial matches in all others. Create one
// per sharded evaluation with NewSharedTopK and open each range's run
// against it with NewShardRun; it is safe for concurrent use.
//
// The threshold it publishes is, at all times, a lower bound on the true
// global k-th best score — it is the k-th best of the guaranteed scores
// offered so far, over all shards — so cross-shard pruning can never
// discard a match that belongs in the global top-k.
type SharedTopK struct {
	set *topkSet
}

// NewSharedTopK creates a shared top-k set for k answers; floor, when
// positive, seeds the threshold (as Experiment.Threshold does). One run
// over it repeats RunContext's answers and counters.
func NewSharedTopK(k int, floor float64) *SharedTopK {
	return &SharedTopK{set: newTopkSet(k, floor, floor > 0)}
}

// Answers returns the current top-k, best first (score descending, ties
// by document order of the root). After every participating run has
// finished, this is the merged global result.
func (s *SharedTopK) Answers() []Answer { return s.set.answers() }
