package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// The step kernel: what happens to one partial match between leaving a
// queue and its survivors entering the next one (Section 5.2). The four
// algorithms differ only in who picks the next match and when
// (Section 6.1.2), so each driver is a loop around these: ParallelRun.Step
// for Whirlpool-S, which routes each match, stepPhase for LockStep and
// LockStep-NoPrun, whose queue hands out one server's phase at a time
// (pq.carry), and runM/serveM for Whirlpool-M, whose router and servers
// run Whirlpool-S's two halves on separate goroutines — the router
// around the same root-pulling queue, each server settling into it.

// drop settles a match that can no longer improve the top-k set, for
// the reason why: counted as pruned and released.
func (r *run) drop(m *match, why verdict) {
	r.prune(1, why)
	r.release(m)
}

// route is the router's half of a step. currentTopK and the root's
// entry may have grown while the popped match waited: if it is now
// prunable it is dropped (0, the root server, is returned — never a
// destination); otherwise it is assigned the server it visits next.
func (r *run) route(m *match) (sid int) {
	if why := r.prunable(m, unchecked); why != survives {
		r.drop(m, why)
		return 0
	}
	sid = r.nextServer(m)
	r.traceRoute(m, sid)
	return sid
}

// serve is the server's half: one server operation on m, each extension
// checked against the top-k set unless keepAll (LockStep-NoPrun, which
// ranks only at the end), m released — its extensions have copied
// everything they need — and the survivors returned in ws.surv, owned
// by the caller until queued or released.
func (r *run) serve(m *match, sid int, ws *Scratch, keepAll bool) []*match {
	surv := ws.surv[:0]
	for _, ext := range r.process(m, sid, ws) {
		if keepAll || r.checkTopK(ext) {
			surv = append(surv, ext)
		} else {
			r.release(ext)
		}
	}
	ws.surv = surv
	r.release(m)
	return surv
}

// runM is Whirlpool-M (Section 6.1.2): Whirlpool-S's router and servers
// on separate goroutines. The router runs on the calling goroutine
// around the router queue, seeded with the root cursor as Whirlpool-S's
// is, so roots are pulled only as they come due and the threshold cuts
// the rest. Each server runs on a goroutine of its own around its own
// queue (serveM) and settles its survivors back into the router queue,
// whose live count is the run's: the run is over when it reaches 0.
// Every queue is a lockedPQ — the pq behind its mutex — with a
// condition variable on that mutex; over, set once at the end or on
// cancellation, wakes every waiter.
//
// The router pops nothing while n−1 matches, as many as there are
// server threads, are out at the servers, queued or being served. A
// root is due whenever the router queue is empty, and a router that
// dispatched freely would keep it empty: it would pull nearly every
// root, as eager seeding did, and do several times Whirlpool-S's work.
// A server's panic is raised again on the calling goroutine once every
// server has returned; the caller never parks the panicked run's state.
func (r *run) runM() {
	n := r.query.Size()
	qs := make([]lockedPQ, n) // 0 is the router's, sid server sid's
	conds := make([]sync.Cond, n)
	for i := range conds {
		conds[i].L = &qs[i].mu
	}
	rq := &qs[0]
	// No server runs yet: seeding needs no lock.
	if rq.pq.seed(r.seedRoots(true)) {
		return
	}
	var over atomic.Bool
	closeAll := func() {
		over.Store(true)
		for i := range qs {
			// Taking the mutex orders the store before the waiter's
			// next check, or the waiter is already in Wait.
			qs[i].mu.Lock()
			qs[i].mu.Unlock()
			conds[i].Broadcast()
		}
	}
	defer context.AfterFunc(r.ctx, closeAll)()
	var wg sync.WaitGroup
	for sid := 1; sid < n; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					first := v // escapes only on a panic
					r.fault.CompareAndSwap(nil, &first)
					closeAll()
				}
			}()
			r.serveM(sid, qs, conds, &over)
		}(sid)
	}
	defer func() { // on every exit, the router's own panic included
		closeAll()
		wg.Wait()
		if v := r.fault.Load(); v != nil {
			panic(*v)
		}
	}()

	var one [1]*match
	// pop's deferred unlock covers a panic in the root pull.
	pop := func() (batch []*match, done bool) {
		rq.mu.Lock()
		defer rq.mu.Unlock()
		for !over.Load() && rq.pq.live > 0 && (dispatched(&rq.pq) >= n-1 || rq.pq.roots == nil && rq.pq.len() == 0) {
			conds[0].Wait()
		}
		if over.Load() || rq.pq.live == 0 {
			return nil, true
		}
		batch, _ = rq.pq.popBatch(one[:0], 1)
		return batch, false
	}
	for !r.cancelled() {
		batch, done := pop()
		if done {
			break
		}
		if len(batch) == 0 {
			continue // the pull cut the cursor, or stopped on cancellation
		}
		m := batch[0]
		sid := r.route(m)
		if sid == 0 {
			rq.settle(r, nil, 1)
			continue
		}
		q := &qs[sid]
		q.mu.Lock()
		q.pq.push(m, r.priority(m, sid))
		depth := q.pq.len()
		q.mu.Unlock()
		conds[sid].Signal()
		r.traceDepth(sid, depth)
	}
}

// dispatched counts the matches a Whirlpool-M router queue has out at
// the servers, queued or being served: its live count less what it
// holds and its cursor. The caller holds the queue's mutex.
func dispatched(q *pq) int {
	out := q.live - q.len()
	if q.roots != nil {
		out--
	}
	return out
}

// serveM is one Whirlpool-M server: pop the best match off the server's
// queue, serve it, settle its survivors into the router queue and wake
// the router. A cancelled run is polled once per match.
func (r *run) serveM(sid int, qs []lockedPQ, conds []sync.Cond, over *atomic.Bool) {
	in := &qs[sid]
	var ws Scratch
	for {
		in.mu.Lock()
		for in.pq.len() == 0 && !over.Load() {
			conds[sid].Wait()
		}
		if over.Load() {
			in.mu.Unlock()
			return
		}
		ws.batch, _ = in.pq.popBatch(ws.batch[:0], 1)
		in.mu.Unlock()
		m := ws.batch[0]
		if r.cancelled() {
			r.release(m)
			return
		}
		qs[0].settle(r, r.serve(m, sid, &ws, false), 1)
		conds[0].Signal()
	}
}
