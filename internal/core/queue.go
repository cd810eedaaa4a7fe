package core

import (
	"math/bits"
	"sync"
)

// prioritized pairs a match with its queue priority. Higher priority pops
// first; ties pop deepest-first (most servers visited), then in seq
// (creation) order, keeping single-threaded runs deterministic. The
// depth and seq are copied in at push — neither changes while a match
// is queued — so a heap compare reads only the heap's own array and
// never dereferences a match. Queues are sanctioned match holders: a
// queued match is owned by the queue until popped.
type prioritized struct {
	m        *match
	priority float64
	seq      int64
	depth    int
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

// item is m queued at priority.
func item(m *match, priority float64) prioritized {
	return prioritized{m: m, priority: priority, seq: m.seq, depth: bits.OnesCount64(m.visited)}
}

// before reports whether a pops ahead of b.
// Scores compare exactly: equal priorities are the tie the depth rule breaks.
func (a *prioritized) before(b *prioritized) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	return a.seq < b.seq
}

func (h matchHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *matchHeap) push(it prioritized) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

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
// live counts the run's outstanding work — matches queued or held by a
// stepper, plus one for the cursor until it is exhausted or cut — and
// reaches zero only when the run is done; a method's done result
// reports that it was the one to take it there.
//
// next holds the best survivor of the last settle outside the heap: a
// match that goes deep among equals is usually the very next pop, and
// then it never pays a sift. It is one more pop candidate under the
// heap's own order, so the pop sequence is the heap's alone.
//
// A LockStep run queues one phase at a time (carry): the heap holds the
// matches still to pass the phase's server, carried those that have
// passed it, in the order they did, and live counts both.
type pq struct {
	h       matchHeap
	next    prioritized // held out of h while next.m != nil
	roots   *rootCursor // nil before seeding and once exhausted or cut
	live    int
	carried []*match // LockStep: the next phase's matches
	phase   int      // LockStep: the current phase's index in run.order, -1 before the first
}

func (q *pq) push(m *match, priority float64) {
	q.h.push(item(m, priority))
}

// due reports whether the cursor's next root could be the next pop: its
// priority bound strictly beats the held match and the heap head. An
// unpulled root loses every tie — it is the shallowest match there is,
// and younger than any pulled root.
// Scores compare exactly: the strict bound comparison mirrors before.
func (q *pq) due() bool {
	c := q.roots
	if c == nil || q.next.m != nil && c.prioBound <= q.next.priority {
		return false
	}
	return len(q.h) == 0 || c.prioBound > q.h[0].priority
}

// pull materialises roots while one is due, so the pop sequence is the
// one eager seeding gives. Once no remaining root can beat currentTopK
// the rest are dropped in one step — seeded eagerly, each would have
// been pruned at its pop.
func (q *pq) pull() {
	c := q.roots
	r := c.r
	for q.due() && !r.cancelled() {
		var m *match
		if c.cut() {
			r.prune(len(c.cands)-c.settled, belowTopK)
		} else if m = c.next(); m == nil && c.lower() {
			continue // the next segment: due and the cut under its bounds
		}
		if m == nil { // cut or exhausted: the cursor retires
			q.roots = nil
			q.live--
			break
		}
		if r.checkTopK(m) {
			// A root is queued at the depth the paper's root server gives
			// it (1, or 2 in segDeleted) however many servers it
			// was born past: an unpulled root then still loses every tie
			// (due), so the pop sequence stays eager seeding's.
			it := item(m, r.priority(m, -1))
			it.depth = 1
			if c.seg == segDeleted {
				it.depth = 2
			}
			q.h.push(it)
			q.live++
		} else {
			r.release(m)
		}
	}
	c.flush()
}

func (q *pq) seed(c *rootCursor) bool {
	q.roots, q.live = c, 1
	q.pull()
	return q.live == 0
}

func (q *pq) popBatch(dst []*match, max int) ([]*match, bool) {
	was := q.live // 0 on a queue not yet seeded: nothing to finish
	for len(dst) < max {
		if q.due() {
			q.pull()
		}
		if q.next.m != nil && (len(q.h) == 0 || q.next.before(&q.h[0])) {
			dst = append(dst, q.next.m)
			q.next = prioritized{}
		} else if len(q.h) > 0 {
			dst = append(dst, q.h.pop().m)
		} else {
			break
		}
	}
	return dst, was != 0 && q.live == 0
}

// settle queues a still-held match first, then holds the best survivor
// out of the heap and pushes the rest.
func (q *pq) settle(r *run, surv []*match, retired int) bool {
	if q.next.m != nil {
		q.h.push(q.next)
		q.next = prioritized{}
	}
	for _, s := range surv {
		it := item(s, r.priority(s, -1))
		switch {
		case q.next.m == nil:
			q.next = it
		case it.before(&q.next):
			q.h.push(q.next)
			q.next = it
		default:
			q.h.push(it)
		}
	}
	q.live += len(surv) - retired
	return q.live == 0
}

// carry queues surv for the next phase and retires retired held
// matches. Once the phase has nothing queued and nothing held, the next
// one opens: its matches enter the heap at their priority at its server,
// ties broken by the order in which they were carried, and the phase's
// one depth sample is taken. After the last phase every match left is
// complete — LockStep-NoPrun's, which ranks only now; a pruning LockStep
// offered each as it completed — and is offered.
func (q *pq) carry(r *run, surv []*match, retired int) bool {
	q.carried = append(q.carried, surv...)
	q.live += len(surv) - retired
	for len(q.h) == 0 && q.live == len(q.carried) && q.phase < len(r.order) {
		if q.phase++; q.phase == len(r.order) {
			for _, m := range q.carried {
				r.topk.offer(m, r.shardID)
				r.release(m)
			}
			q.live = 0
		} else {
			sid := r.order[q.phase]
			for i, m := range q.carried {
				q.h.push(prioritized{m: m, priority: r.priority(m, sid), seq: int64(i)})
			}
			r.traceDepth(sid, len(q.h))
		}
		q.carried = q.carried[:0]
	}
	return q.live == 0
}

// len counts queued matches, the held one included.
func (q *pq) len() int {
	if q.next.m != nil {
		return len(q.h) + 1
	}
	return len(q.h)
}

// lockedPQ is a pq behind a mutex: Whirlpool-M's router and server
// queues, each with a condition variable on the mutex (runM), so the
// router and the server goroutines can share them. It is a sanctioned
// match holder — a queued match is owned by the queue until popped.
type lockedPQ struct {
	mu sync.Mutex
	pq pq
}

// settle is pq.settle under the queue's mutex: a server's survivors
// enter the router queue and their parent leaves it in one update.
func (q *lockedPQ) settle(r *run, surv []*match, retired int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pq.settle(r, surv, retired)
}
