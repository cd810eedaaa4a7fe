package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// runS is Whirlpool-S (Section 6.1.2): a single thread, no server queues —
// a partial match is processed as soon as the router picks it, and the
// router queue orders matches by the configured discipline (maximum
// possible final score by default, the MPro/Upper-style schedule).
//
// The queue, scratch and batch buffers are st's, handed back grown, so
// a warm run allocates nothing here.
func (r *run) runS(st *runState) {
	q := pq{h: st.heap[:0], roots: r.seedRoots()}
	sc := &st.ws
	batch, skipped := st.ws.batch, st.ws.surv
	batchSize := r.cfg.RouterBatch
	if batchSize < 1 {
		batchSize = 1
	}
	for !r.cancelled() {
		m, ok := q.pop()
		if !ok {
			break
		}
		// currentTopK may have grown since the match was queued.
		if r.prunable(m) {
			r.prune(1)
			r.release(m)
			continue
		}
		sid := r.nextServer(m)
		r.traceRoute(m, sid)
		r.traceDepth(-1, q.len())
		batch = append(batch[:0], m)
		// Bulk adaptivity: matches adjacent in the router queue (and so
		// closest in priority) share the head's routing decision.
		skipped = skipped[:0]
		for len(batch) < batchSize {
			m2, ok := q.pop()
			if !ok {
				break
			}
			if r.prunable(m2) {
				r.prune(1)
				r.release(m2)
				continue
			}
			if m2.isVisited(sid) {
				skipped = append(skipped, m2)
				continue
			}
			r.traceRoute(m2, sid)
			batch = append(batch, m2)
		}
		for _, bm := range batch {
			for _, ext := range r.process(bm, sid, sc) {
				if r.checkTopK(ext) {
					q.push(ext, r.priority(ext, -1))
				} else {
					r.release(ext)
				}
			}
			r.release(bm)
		}
		for _, sm := range skipped {
			q.push(sm, r.priority(sm, -1))
		}
	}
	st.heap, st.ws.batch, st.ws.surv = q.h, batch, skipped
}

// runLockStep processes every alive partial match through one server
// before the next server is considered (static by nature). With prune
// set, matches are checked against the top-k set as they are produced —
// the paper's LockStep (≈ OptThres [2]); without it, everything is
// evaluated and the k best matches selected at the end (LockStep-NoPrun).
func (r *run) runLockStep(prune bool) {
	sc := &Scratch{}
	var alive []*match
	roots := r.seedRoots()
	for m := roots.next(); m != nil; m = roots.next() {
		if prune && !r.checkTopK(m) {
			r.release(m)
			continue
		}
		alive = append(alive, m)
	}
	roots.flush()
	for _, sid := range r.order {
		// Server queues are priority queues too (max-possible-final by
		// default): within a phase, promising matches go first so
		// currentTopK rises early.
		sort.SliceStable(alive, func(i, j int) bool {
			return r.priority(alive[i], sid) > r.priority(alive[j], sid)
		})
		// One depth sample per phase: the whole alive set queues at sid.
		r.traceDepth(sid, len(alive))
		var next []*match
		for _, m := range alive {
			if r.cancelled() {
				return
			}
			if prune && r.prunable(m) {
				r.prune(1)
				r.release(m)
				continue
			}
			for _, ext := range r.process(m, sid, sc) {
				if prune && !r.checkTopK(ext) {
					r.release(ext)
					continue
				}
				next = append(next, ext)
			}
			r.release(m)
		}
		alive = next
	}
	if !prune {
		// All survivors are complete; select the k best now. offer
		// copies out of the match, so it can be released immediately.
		for _, m := range alive {
			r.topk.offer(m, r.shardID)
			r.release(m)
		}
	}
}

// liveCounter tracks the number of matches alive anywhere in
// Whirlpool-M's pipeline; done closes when it reaches zero.
type liveCounter struct {
	n    atomic.Int64
	done chan struct{}
	once sync.Once
}

func newLiveCounter() *liveCounter {
	return &liveCounter{done: make(chan struct{})}
}

func (c *liveCounter) add(d int64) {
	if c.n.Add(d) == 0 {
		c.markDone()
	}
}

func (c *liveCounter) markDone() {
	c.once.Do(func() { close(c.done) })
}

// runM is Whirlpool-M: one goroutine per server with its own priority
// queue, a router goroutine with the router queue, and the main goroutine
// watching for termination (Section 6.1.2). Matches circulate
// router → server → top-k check → router until everything is complete or
// pruned.
func (r *run) runM() {
	n := r.query.Size()
	routerQ := newBlockingPQ()
	serverQs := make([]*blockingPQ, n)
	for sid := 1; sid < n; sid++ {
		serverQs[sid] = newBlockingPQ()
	}
	live := newLiveCounter()
	var wg sync.WaitGroup

	workers := r.cfg.ServerWorkers
	if workers < 1 {
		workers = 1
	}
	for sid := 1; sid < n; sid++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sid int) {
				defer wg.Done()
				r.serveM(sid, serverQs[sid], routerQ, live)
			}(sid)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.routeM(routerQ, serverQs, live)
	}()

	// The cursor is one live unit while it drains, so the counter cannot
	// touch zero between two roots.
	live.add(1)
	roots := r.seedRoots()
	for m := roots.next(); m != nil; m = roots.next() {
		if r.checkTopK(m) {
			live.add(1)
			routerQ.push(m, r.priority(m, -1))
		} else {
			r.release(m)
		}
	}
	roots.flush()
	live.add(-1)

	<-live.done
	routerQ.close()
	for sid := 1; sid < n; sid++ {
		serverQs[sid].close()
	}
	wg.Wait()
}

// serveM is one Whirlpool-M server worker: pop a match from the server's
// queue, process it, check extensions against the top-k set, and hand
// survivors back to the router.
func (r *run) serveM(sid int, in *blockingPQ, routerQ *blockingPQ, live *liveCounter) {
	sc := &Scratch{}
	var survivors []*match
	for {
		m, ok := in.pop()
		if !ok {
			return
		}
		if r.cancelled() {
			r.release(m)
			live.add(-1) // drain so the live counter reaches zero
			continue
		}
		survivors = survivors[:0]
		for _, ext := range r.process(m, sid, sc) {
			if r.checkTopK(ext) {
				survivors = append(survivors, ext)
			} else {
				r.release(ext)
			}
		}
		// The parent's extensions have copied everything they need;
		// recycle it before handing survivors on.
		r.release(m)
		// Count children in before decrementing the parent so the live
		// counter can never dip to zero mid-flight.
		live.add(int64(len(survivors)))
		for _, s := range survivors {
			routerQ.push(s, r.priority(s, -1))
		}
		live.add(-1)
	}
}

// routeM is the Whirlpool-M router goroutine: re-check each match against
// currentTopK (it may have grown while the match sat in the queue), pick
// its next server, and enqueue it there. With RouterBatch > 1, routing
// decisions are shared by groups of queue-adjacent matches.
func (r *run) routeM(routerQ *blockingPQ, serverQs []*blockingPQ, live *liveCounter) {
	batchSize := r.cfg.RouterBatch
	if batchSize < 1 {
		batchSize = 1
	}
	for {
		m, ok := routerQ.pop()
		if !ok {
			return
		}
		if r.cancelled() {
			r.release(m)
			live.add(-1) // drain so the live counter reaches zero
			continue
		}
		if r.prunable(m) {
			r.prune(1)
			r.release(m)
			live.add(-1)
			continue
		}
		sid := r.nextServer(m)
		r.traceRoute(m, sid)
		serverQs[sid].push(m, r.priority(m, sid))
		r.traceDepth(sid, serverQs[sid].len())
		// Bulk adaptivity: drain up to batchSize-1 more matches that can
		// reuse the decision without blocking for new arrivals.
		for extra := 1; extra < batchSize; extra++ {
			m2, ok := routerQ.tryPop()
			if !ok {
				break
			}
			if r.prunable(m2) {
				r.prune(1)
				r.release(m2)
				live.add(-1)
				continue
			}
			if m2.isVisited(sid) {
				sid2 := r.nextServer(m2)
				r.traceRoute(m2, sid2)
				serverQs[sid2].push(m2, r.priority(m2, sid))
				continue
			}
			r.traceRoute(m2, sid)
			serverQs[sid].push(m2, r.priority(m2, sid))
		}
	}
}
