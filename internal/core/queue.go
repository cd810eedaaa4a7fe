package core

import (
	"math/bits"
	"sync"
)

// prioritized pairs a match with its queue priority. Higher priority pops
// first; ties pop deepest-first (most servers visited), then in seq
// (creation) order, keeping single-threaded runs deterministic. Queues
// are sanctioned match holders: a queued match is owned by the queue
// until popped.
// +whirllint:matchowner
type prioritized struct {
	m        *match
	priority float64
}

// matchHeap is a binary max-heap of prioritized matches with the sift
// operations written out directly rather than through container/heap:
// the heap.Interface methods box every pushed and popped element into an
// `any`, which costs one heap allocation per queue operation — the
// dominant allocation site of the serving loop once matches themselves
// are arena-recycled. The ordering (priority desc, then visited-count
// desc, then seq asc) is total, so every correct heap pops the same
// sequence and determinism does not depend on sift details.
//
// The paper orders queues by priority (Section 6.1.3) and leaves ties
// open. Going deep among equals lets a tied frontier finish one match —
// and raise currentTopK — before it widens: under sparse scores every
// root starts on the same maxFinal, and seq order alone would walk all
// of them breadth-first.
type matchHeap []prioritized

// +whirllint:exactscore equal priorities are the tie the depth rule breaks
func (h matchHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if da, db := bits.OnesCount64(a.m.visited), bits.OnesCount64(b.m.visited); da != db {
		return da > db
	}
	return a.m.seq < b.m.seq
}

// +whirllint:hotpath
func (h *matchHeap) push(it prioritized) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// +whirllint:hotpath
func (h *matchHeap) pop() prioritized {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	it := old[n]
	old[n] = prioritized{}
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
	return it
}

func (h matchHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h matchHeap) down(i int) {
	n := len(h)
	for l := 2*i + 1; l < n; l = 2*i + 1 {
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// pq is a plain (single-goroutine) priority queue. It also carries the
// run's root cursor while that has roots left: the root server's output
// is one more source of queue items, materialised on demand (pull).
type pq struct {
	h     matchHeap
	roots *rootCursor // nil before seeding and once exhausted or cut
}

func (q *pq) push(m *match, priority float64) {
	q.h.push(prioritized{m: m, priority: priority})
}

// +whirllint:hotpath
func (q *pq) pop() (*match, bool) {
	if q.roots != nil {
		q.pull()
	}
	if len(q.h) == 0 {
		return nil, false
	}
	it := q.h.pop()
	return it.m, true
}

// pull materialises roots only while the cursor's priority bound
// strictly beats the heap head: an unpulled root loses every tie (it is
// the shallowest match there is, and younger than any pulled root), so
// the pop sequence is the one eager seeding gives. Once no remaining
// root can beat currentTopK the rest are dropped in one step — seeded
// eagerly, each would have been pruned at its pop.
// +whirllint:exactscore the strict bound comparison mirrors less
func (q *pq) pull() {
	c := q.roots
	r := c.r
	for !r.cancelled() {
		if t, ok := r.topk.threshold(); ok && c.finalBound <= t+pruneEps {
			r.prune(len(c.cands) - c.pos)
			q.roots = nil
			break
		}
		if len(q.h) > 0 && c.prioBound <= q.h[0].priority {
			break
		}
		m := c.next()
		if m == nil {
			q.roots = nil
			break
		}
		if r.checkTopK(m) {
			q.push(m, r.priority(m, -1))
		} else {
			r.release(m)
		}
	}
	c.flush()
}

func (q *pq) len() int { return len(q.h) }

// blockingPQ is the concurrent priority queue behind Whirlpool-M's server
// and router queues: pop blocks until an item arrives or the queue is
// closed.
type blockingPQ struct {
	mu     sync.Mutex
	cond   *sync.Cond
	h      matchHeap
	closed bool
}

func newBlockingPQ() *blockingPQ {
	q := &blockingPQ{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *blockingPQ) push(m *match, priority float64) {
	q.mu.Lock()
	q.h.push(prioritized{m: m, priority: priority})
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until an item is available (returning it with ok = true) or
// the queue is closed and drained of interest (ok = false).
func (q *blockingPQ) pop() (*match, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.h) == 0 {
		return nil, false
	}
	it := q.h.pop()
	return it.m, true
}

// tryPop returns an item if one is immediately available, without
// blocking.
func (q *blockingPQ) tryPop() (*match, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return nil, false
	}
	it := q.h.pop()
	return it.m, true
}

// len samples the queue's current depth (observability only: the value
// is stale the moment the lock is released).
func (q *blockingPQ) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

func (q *blockingPQ) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
