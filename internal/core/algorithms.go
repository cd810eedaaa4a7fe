package core

import (
	"sync"
	"sync/atomic"
)

// The step kernel: what happens to one partial match between leaving a
// queue and its survivors entering the next one (Section 5.2). The four
// algorithms differ only in who picks the next match and when
// (Section 6.1.2), so each driver is a loop around these: ParallelRun.Step
// for Whirlpool-S, which routes each match, stepPhase for LockStep and
// LockStep-NoPrun, whose queue hands out one server's phase at a time
// (pq.carry), and routeM/serveM for Whirlpool-M.

// drop settles a match that can no longer beat currentTopK: counted as
// pruned and released.
func (r *run) drop(m *match) {
	r.prune(1)
	r.release(m)
}

// route is the router's half of a step. currentTopK may have grown
// while the popped match waited: if it is now prunable it is dropped
// (0, the root server, is returned — never a destination); otherwise it
// is assigned the server it visits next.
// +whirllint:hotpath
func (r *run) route(m *match) (sid int) {
	if r.prunable(m) {
		r.drop(m)
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
// +whirllint:hotpath
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

	for sid := 1; sid < n; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			r.serveM(sid, serverQs[sid], routerQ, live)
		}(sid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.routeM(routerQ, serverQs, live)
	}()

	// The cursor is one live unit while it drains, so the counter cannot
	// touch zero between two roots.
	live.add(1)
	r.seedRoots().drain(func(m *match) {
		if r.checkTopK(m) {
			live.add(1)
			routerQ.push(m, r.priority(m, -1))
		} else {
			r.release(m)
		}
	})
	live.add(-1)

	<-live.done
	routerQ.close()
	for sid := 1; sid < n; sid++ {
		serverQs[sid].close()
	}
	wg.Wait()
}

// serveM is one Whirlpool-M server worker: pop a match from the server's
// queue, serve it, and hand the survivors back to the router.
func (r *run) serveM(sid int, in *blockingPQ, routerQ *blockingPQ, live *liveCounter) {
	var ws Scratch
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
		surv := r.serve(m, sid, &ws, false)
		// Count children in before decrementing the parent so the live
		// counter can never dip to zero mid-flight.
		live.add(int64(len(surv)))
		for _, s := range surv {
			routerQ.push(s, r.priority(s, -1))
		}
		live.add(-1)
	}
}

// routeM is the Whirlpool-M router goroutine: route each match off the
// router queue and enqueue it at its next server.
func (r *run) routeM(routerQ *blockingPQ, serverQs []*blockingPQ, live *liveCounter) {
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
		sid := r.route(m)
		if sid == 0 {
			live.add(-1)
			continue
		}
		serverQs[sid].push(m, r.priority(m, sid))
		r.traceDepth(sid, serverQs[sid].len())
	}
}
