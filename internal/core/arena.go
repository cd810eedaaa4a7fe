package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// arenaChunk is the number of matches carved per slab allocation: one
// []match block plus one flat bindings block amortize to two heap
// allocations per arenaChunk matches instead of two per match.
const arenaChunk = 256

// arenaPoison, when set by a test, makes release scramble every field of
// a recycled match before it reaches the freelist, so any use of a match
// past its release shows up as corrupted scores or nil bindings instead
// of silently reading stale-but-plausible data.
var arenaPoison atomic.Bool

// SetArenaPoisonForTest toggles poison-on-release globally. It exists
// for internal/shard's TestShardedPoolEquivalence, which needs
// use-after-release bugs in the shard pool to surface as corrupted
// answers; production code must never call it.
func SetArenaPoisonForTest(v bool) { arenaPoison.Store(v) }

// matchArena recycles a run's dead matches — pruned, completed, or
// consumed by a server operation — instead of dropping them for the GC,
// and outlives the run inside its ParallelRun: a finished run has
// released every match, so the next run starts on full freelists. Section
// 5.2.1's server operation spawns one match per extension, all
// short-lived; the arena caps that churn: bindings come from chunked
// flat slabs of ordinals (queries are capped at 64 nodes by
// Config.validate, so one slab holds arenaChunk vectors), and a released
// match returns to a freelist with its bindings slice attached, reset to
// unbound. The bindings slabs are ordinals: nothing in them for the
// collector to trace.
//
// Ownership rules (held at run time under poison by
// TestEngineAgreesWithNaive and TestTopKDoesNotRetainReleasedMatch):
//
//   - a *match obtained from get is owned by exactly one holder at a
//     time: a queue, a batch slice, or the goroutine processing it;
//   - release transfers ownership back to the arena — the caller must
//     not touch the match afterwards;
//   - anything that outlives the match must copy out of it, never alias
//     it: the top-k set copies bindings into entry-owned storage
//     (topkSet.offer) precisely so completed matches can be released.
//
// A Whirlpool-S or LockStep run, a claimed shard's included, stays on
// its one stepper's goroutine and uses the arena unlocked. Whirlpool-M's
// router and server goroutines get and release concurrently, so there
// every get and release takes mu. Its router keeps at most n−1 matches
// out at the servers (runM), too few for the one lock to be worth
// spreading: per-P freelists measured the same (DESIGN.md, Memory
// management).
type matchArena struct {
	n int // bindings per match == query size
	// locked is set by Engine.open for a Whirlpool-M run, whose
	// goroutines share the arena: mu is then taken on every get and
	// release. It is a mode of the run, not of the arena — an idle state
	// serves the next run of its width whatever its algorithm.
	locked bool
	mu     sync.Mutex
	free   []*match
	slab   []match // current match slab, carved sequentially
	bnd    []int32 // current flat bindings slab, every entry -1 until carved
}

// newMatchArena sizes the arena for matches of n bindings.
func newMatchArena(n int) *matchArena { return &matchArena{n: n} }

// get returns a cleared match with a bindings slice of the arena's
// width: recycled when the freelist has one, otherwise carved from the
// current slab.
func (a *matchArena) get() *match {
	if !a.locked {
		return a.getLocked()
	}
	a.mu.Lock()
	m := a.getLocked()
	a.mu.Unlock()
	return m
}

// getLocked pops the freelist or carves the slab: one slab of
// arenaChunk matches per refill, not an allocation per get. The caller
// holds a.mu when the arena is locked.
func (a *matchArena) getLocked() *match {
	if ln := len(a.free); ln > 0 {
		m := a.free[ln-1]
		a.free[ln-1] = nil
		a.free = a.free[:ln-1]
		m.visited, m.missing = 0, 0
		m.score, m.maxFinal = 0, 0
		m.seq = 0
		return m
	}
	if len(a.slab) == 0 {
		a.slab = make([]match, arenaChunk)
		a.bnd = make([]int32, arenaChunk*a.n)
		unbind(a.bnd)
	}
	m := &a.slab[0]
	a.slab = a.slab[1:]
	m.bindings = a.bnd[:a.n:a.n]
	a.bnd = a.bnd[a.n:]
	return m
}

// release returns a dead match to the arena. The caller gives up
// ownership: the match may be handed out again by the very next get, so
// no reference to it — or to its bindings slice — may be retained.
// Nil-safe.
func (a *matchArena) release(m *match) {
	if m == nil {
		return
	}
	// Bindings are reset here rather than in get: a match comes out of
	// get unbound, which a root match and the offer of a partial match
	// rely on.
	unbind(m.bindings)
	if arenaPoison.Load() {
		m.visited, m.missing = ^uint64(0), ^uint64(0)
		m.score, m.maxFinal = math.NaN(), math.Inf(-1)
		m.seq = -1
	}
	if a.locked {
		a.mu.Lock()
		a.free = append(a.free, m)
		a.mu.Unlock()
		return
	}
	a.free = append(a.free, m)
}

// unbind marks every binding unbound.
func unbind(b []int32) {
	for i := range b {
		b[i] = -1
	}
}

// release is the run-level entry point every algorithm uses when a
// match dies: pruned, completed, failed an inner join, or consumed by a
// server operation that spawned its extensions.
func (r *run) release(m *match) { r.arena.release(m) }

const (
	// maxIdleStates bounds the free list; the oldest state goes first.
	maxIdleStates = 64
	// maxIdleMatches bounds what one idle state holds in matches plus
	// top-k entries: a run that needed more (a LockStep pass over every
	// root, say) drops its state instead.
	maxIdleMatches = 16 * arenaChunk
)

// idleStates is the free list of run states (see ParallelRun).
var idleStates struct {
	mu   sync.Mutex
	list []*ParallelRun
}

// acquireState returns the most recently released idle state for
// matches of n bindings, or a fresh one.
func acquireState(n int) *ParallelRun {
	l := &idleStates
	l.mu.Lock()
	for i := len(l.list) - 1; i >= 0; i-- {
		if st := l.list[i]; st.arena.n == n {
			l.list = slices.Delete(l.list, i, i+1)
			l.mu.Unlock()
			return st
		}
	}
	l.mu.Unlock()
	return &ParallelRun{arena: newMatchArena(n), topk: newTopkSet(1, 0, false), r: run{at: make([]int, n)}}
}

// release parks the state for the next run. Only a run that finished
// has every match back on a freelist — a cancelled one strands matches
// in queues and batches — so any other state is left to the collector,
// as is an outsized one.
func (p *ParallelRun) release() {
	held := len(p.topk.ents) + len(p.arena.free)
	if !p.IsDone() || held > maxIdleMatches {
		return
	}
	// Idle, it must not pin the engine, context or document it served.
	p.r = run{at: p.r.at}
	p.topk.reset(1, 0, false)
	l := &idleStates
	l.mu.Lock()
	if len(l.list) == maxIdleStates {
		l.list = slices.Delete(l.list, 0, 1)
	}
	l.list = append(l.list, p)
	l.mu.Unlock()
}
