package whirlpool

import (
	"errors"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/synopsis"
)

// Synopsis is an annotated structure synopsis of a database — a strong
// dataguide with per-path counts and per-(path, tag) descendant
// statistics. It answers the component-predicate statistics queries of
// value-free nodes (exactly — the synopsis is not an estimate) without
// touching the index, so their planning cost is independent of document
// size; a node with a content predicate is computed from its own
// (tag, value) postings instead (score.CollectStats).
type Synopsis = synopsis.Synopsis

// QueryPlan is a compiled, cacheable query plan: server plans, a
// scorer, per-server routing statistics and a cost-based static server
// order. See Planner.
type QueryPlan = core.Plan

var errNilQuery = errors.New("whirlpool: nil query")

// CanonicalQueryKey returns the canonical cache identity of a query's
// shape: queries differing only in predicate declaration order share a
// key, structurally distinct queries never do.
func CanonicalQueryKey(q *Query) string { return pattern.CanonicalKey(q) }

// Synopsis returns the database's structure synopsis: built beside the
// postings at load, or opened from the snapshot.
func (db *Database) Synopsis() *Synopsis { return db.syn }

// Synopsis returns the database's structure synopsis: cutting a query's
// roots into ranges changes where work runs, not what the corpus holds.
func (sdb *ShardedDatabase) Synopsis() *Synopsis { return sdb.db.Synopsis() }

// Planner compiles and caches query plans. Plans are keyed on the
// query's canonical shape (predicate order ignored) plus the relaxation
// mode and normalization, so textual variants of one query share a
// single compiled plan; construction is deduplicated in flight. Below
// the plans a score.Memo keeps what was learned per component predicate:
// a plan miss walks only the posting lists no earlier query walked. All
// methods are safe for concurrent use.
type Planner struct {
	ix    index.Source
	stats *score.Memo
	cache *lru.Cache[string, *QueryPlan]

	hits   atomic.Int64
	misses atomic.Int64
}

// NewPlanner returns a planner over the database bounded to capacity
// cached plans. A plan miss resolves value-free predicates from the
// synopsis and valued ones from the planner's memo (lru.PostingsCap
// entries, whatever capacity is): the first query to ask walks the
// node's postings — their length, not the number of root candidates —
// and a later miss on learned predicates costs a few map lookups.
func (db *Database) NewPlanner(capacity int) *Planner {
	return &Planner{ix: db.ix, stats: score.NewMemo(db.ix, db.Synopsis()), cache: lru.New[string, *QueryPlan](capacity)}
}

// NewPlanner returns a planner over the sharded database bounded to
// capacity cached plans. Statistics are a whole-corpus quantity, so it
// is the unsharded database's planner: same index, same synopsis, same
// plans.
func (sdb *ShardedDatabase) NewPlanner(capacity int) *Planner { return sdb.db.NewPlanner(capacity) }

// PlanFor returns the cached plan for q's canonical shape under the
// given relaxation and normalization, compiling it on a miss. hit
// reports whether the plan (or its in-flight build) was already cached.
//
// The returned plan is compiled for the canonicalized query — equal for
// every predicate ordering of q — and engines built from it evaluate
// plan.Query, so answer Bindings are indexed by the canonical query's
// node IDs.
func (p *Planner) PlanFor(q *Query, r Relaxation, norm Normalization) (*QueryPlan, bool, error) {
	if q == nil {
		return nil, false, errNilQuery
	}
	key := pattern.CanonicalKey(q) + "|relax=" + strconv.Itoa(int(r)) + "|norm=" + strconv.Itoa(int(norm))
	plan, hit, err := p.cache.GetOrCreate(key, func() (*QueryPlan, error) {
		cq := pattern.Canonicalize(q)
		if err := cq.Validate(); err != nil {
			return nil, err
		}
		stats := score.CollectStats(p.ix, p.stats, cq)
		return core.CompilePlan(stats, cq, r, score.NewTFIDFFromStats(stats, norm), key)
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return plan, hit, err
}

// PlannerStats is a point-in-time snapshot of a planner's cache
// counters.
type PlannerStats struct {
	// Hits and Misses count PlanFor calls served from cache vs.
	// compiled (joining an in-flight compile counts as a hit).
	Hits, Misses int64
	// Evictions counts plans evicted for capacity.
	Evictions int64
	// Len and Cap are the cache's current size and bound.
	Len, Cap   int
	Predicates score.MemoStats // the statistics memo the missed plans asked
}

// Stats returns the planner's cache counters.
func (p *Planner) Stats() PlannerStats {
	return PlannerStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.cache.Evictions(),
		Len:        p.cache.Len(),
		Cap:        p.cache.Cap(),
		Predicates: p.stats.Stats(),
	}
}
