package core

import (
	"math"
	"runtime"
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
// for cross-package property tests (internal/shard's equivalence
// suite) that need use-after-release bugs to surface as corrupted
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
// Ownership rules (held at run time by the arena's poison tests,
// TestArenaPoisonEquivalence and TestTopKDoesNotRetainReleasedMatch):
//
//   - a *match obtained from get is owned by exactly one holder at a
//     time: a queue, a batch slice, or the goroutine processing it;
//   - release transfers ownership back to the arena — the caller must
//     not touch the match afterwards;
//   - anything that outlives the match must copy out of it, never alias
//     it: the top-k set copies bindings into entry-owned storage
//     (topkSet.offer) precisely so completed matches can be released.
//
// A Whirlpool-S or LockStep run stays on its one stepper's goroutine,
// so it gets one unlocked shard. Whirlpool-M's router and server
// goroutines allocate and release concurrently, so there the arena
// shards its freelists (each behind its own mutex) and every match
// remembers its home shard: get spreads over shards round-robin,
// release returns to the home shard, keeping goroutines from
// serializing on a single freelist lock.
type matchArena struct {
	n int // bindings per match == query size
	// locked is set for concurrent arenas: shard mutexes are taken on
	// every get/release. It is independent of the shard count —
	// GOMAXPROCS=1 still runs multiple goroutines.
	locked bool
	shards []arenaShard
	ctr    atomic.Uint32 // round-robin get cursor (concurrent arenas)
}

// arenaShard is one freelist plus its slab cursor. The pad keeps
// neighbouring shards out of one cache line under Whirlpool-M.
type arenaShard struct {
	mu   sync.Mutex
	free []*match
	slab []match // current match slab, carved sequentially
	bnd  []int32 // current flat bindings slab, every entry -1 until carved
	_    [64]byte
}

// newMatchArena sizes the arena for matches of n bindings. concurrent
// selects the sharded (locked) layout.
func newMatchArena(n int, concurrent bool) *matchArena {
	a := &matchArena{n: n, locked: concurrent}
	nshards := 1
	if a.locked {
		nshards = runtime.GOMAXPROCS(0)
		if nshards > 16 {
			nshards = 16
		}
		if nshards < 1 {
			nshards = 1
		}
	}
	a.shards = make([]arenaShard, nshards)
	return a
}

// get returns a cleared match with a bindings slice of the arena's
// width: recycled when the freelist has one, otherwise carved from the
// current slab.
func (a *matchArena) get() *match {
	idx := 0
	s := &a.shards[0]
	if a.locked {
		idx = int(a.ctr.Add(1)) % len(a.shards)
		s = &a.shards[idx]
		s.mu.Lock()
	}
	m := s.getLocked(a.n, int32(idx))
	if a.locked {
		s.mu.Unlock()
	}
	return m
}

// getLocked pops the freelist or carves the slab: one slab of
// arenaChunk matches per refill, not an allocation per get. Callers
// hold s.mu when the arena is sharded; the single-shard layout has no
// lock to hold.
func (s *arenaShard) getLocked(n int, home int32) *match {
	if ln := len(s.free); ln > 0 {
		m := s.free[ln-1]
		s.free[ln-1] = nil
		s.free = s.free[:ln-1]
		m.visited, m.missing = 0, 0
		m.score, m.maxFinal = 0, 0
		m.seq = 0
		return m
	}
	if len(s.slab) == 0 {
		s.slab = make([]match, arenaChunk)
		s.bnd = make([]int32, arenaChunk*n)
		unbind(s.bnd)
	}
	m := &s.slab[0]
	s.slab = s.slab[1:]
	m.bindings = s.bnd[:n:n]
	s.bnd = s.bnd[n:]
	m.home = home
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
	s := &a.shards[m.home]
	if a.locked {
		s.mu.Lock()
		s.free = append(s.free, m)
		s.mu.Unlock()
		return
	}
	s.free = append(s.free, m)
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
func acquireState(n int, concurrent bool) *ParallelRun {
	l := &idleStates
	l.mu.Lock()
	for i := len(l.list) - 1; i >= 0; i-- {
		if st := l.list[i]; st.arena.n == n && st.arena.locked == concurrent {
			l.list = slices.Delete(l.list, i, i+1)
			l.mu.Unlock()
			return st
		}
	}
	l.mu.Unlock()
	return &ParallelRun{arena: newMatchArena(n, concurrent), topk: newTopkSet(1, 0, false)}
}

// release parks the state for the next run. Only a run that finished
// has every match back on a freelist — a cancelled one strands matches
// in queues and batches — so any other state is left to the collector,
// as is an outsized one.
func (p *ParallelRun) release() {
	held := len(p.topk.ents)
	for i := range p.arena.shards {
		held += len(p.arena.shards[i].free)
	}
	if !p.IsDone() || held > maxIdleMatches {
		return
	}
	// Idle, it must not pin the engine, context or document it served.
	p.r = run{}
	p.topk.reset(1, 0, false)
	l := &idleStates
	l.mu.Lock()
	if len(l.list) == maxIdleStates {
		l.list = slices.Delete(l.list, 0, 1)
	}
	l.list = append(l.list, p)
	l.mu.Unlock()
}
