package score

import (
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/pattern"
	"repro/internal/relax"
)

// Memo is a StatsSource that learns. It asks first (a synopsis, or nil),
// then its bounded cache of component-predicate statistics, and walks a
// node's postings only the first time its predicate is asked; concurrent
// first asks share one walk. idf belongs to the component predicate, not
// the query (Definition 4.2), so every query naming one reuses its entry;
// the corpus behind ix is immutable, so nothing is ever invalidated.
type Memo struct {
	ix          index.Source
	first       StatsSource
	cache       *lru.Cache[memoKey, [2]index.PredicateStats]
	hits, walks atomic.Int64
}

// memoKey is exactly what postingStats reads for a node below the root.
// The value test is index.Test's normalised op and value strings, never
// the ValueTest: its comparand is NaN for "< 'NaN'", and a key holding
// NaN never equals itself — never hit, never deleted on eviction.
type memoKey struct {
	rootTag, tag, op, value string
	path                    relax.PathPredicate
}

// NewMemo returns an empty memo over the whole-corpus source ix, capped
// like the posting caches, whose keys also come from requests.
func NewMemo(ix index.Source, first StatsSource) *Memo {
	return &Memo{ix: ix, first: first, cache: lru.New[memoKey, [2]index.PredicateStats](lru.PostingsCap)}
}

// ComponentStats implements StatsSource.
func (m *Memo) ComponentStats(q *pattern.Query, id int) (exact, relaxed index.PredicateStats, ok bool) {
	if m.first != nil {
		if exact, relaxed, ok = m.first.ComponentStats(q, id); ok {
			return exact, relaxed, true
		}
	}
	if id == 0 { // also depends on the root's axis, and costs no walk
		return exact, relaxed, false
	}
	node := q.Nodes[id]
	vt := index.Test(node.ValueOp, node.Value)
	key := memoKey{q.Root().Tag, node.Tag, vt.Op, vt.Value, relax.ComposePath(q, 0, id)}
	pair, hit, err := m.cache.GetOrCreate(key, func() (pair [2]index.PredicateStats, _ error) {
		pair[0], pair[1] = postingStats(m.ix, q, id)
		return pair, nil
	})
	if err != nil { // the walk we waited on panicked: let the caller walk
		return exact, relaxed, false
	}
	if hit {
		m.hits.Add(1)
	} else {
		m.walks.Add(1)
	}
	return pair[0], pair[1], true
}

// MemoStats counts a Memo's cache hits, posting walks and evictions.
type MemoStats struct {
	Hits, Walks, Evictions int64
	Len, Cap               int
}

// Stats returns the memo's counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{m.hits.Load(), m.walks.Load(), m.cache.Evictions(), m.cache.Len(), m.cache.Cap()}
}
