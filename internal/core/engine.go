package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// Engine evaluates top-k queries for one (document, query, config)
// combination. It precomputes the server plans (Algorithm 1), the
// per-server maximum contributions backing the maximum-possible-final
// bound, and the fanout statistics the size-based router uses. An Engine
// is immutable after New — except for the cumulative totals behind
// Totals — and safe for repeated and concurrent Run calls.
type Engine struct {
	cfg   Config
	query *pattern.Query
	plans []*relax.ServerPlan

	maxContrib  []float64 // per query node
	minContrib  []float64
	expContrib  []float64
	fanout      []float64 // expected extensions per satisfying root
	satisfyProb []float64 // fraction of roots with ≥1 candidate
	sumMax      float64   // Σ maxContrib over non-root nodes
	allVisited  uint64
	order       []int             // static order (defaulted)
	vts         []index.ValueTest // per-node content predicates
	probes      []index.Probe     // per-server (tag, value test), resolved once
	rootVia     int               // valued node whose postings stream the roots; 0 = scan (rootCursor)
	roots, post []*xmltree.Node   // the root's candidates and rootVia's postings
	member      bool              // ix is one member of a partitioned corpus (NewMember)

	// totals accumulates every run's Stats behind one mutex, taken once
	// per run; whirlpoold serves it per engine in /stats.
	totalsMu sync.Mutex
	totals   Totals
}

// Totals is a point-in-time snapshot of an engine's cumulative
// instrumentation: the sums of every completed run's Stats (the paper's
// Section 6.2.3 measures) plus run counts. Aborted counts cancelled
// runs, whose partial work is not included in the sums.
type Totals struct {
	Runs    int64
	Aborted int64
	Stats
}

// Totals returns the engine's cumulative statistics over all completed
// RunContext calls. Safe for concurrent use with in-flight runs.
func (e *Engine) Totals() Totals {
	e.totalsMu.Lock()
	defer e.totalsMu.Unlock()
	return e.totals
}

// NewMember is New over one member of a partitioned corpus, which
// enumerates only its own nodes: a part's postings climb into roots the
// spine owns, and the spine's postings lie in the parts, so it scans.
func NewMember(ix index.Source, q *pattern.Query, cfg Config, spine bool) (*Engine, error) {
	e, err := New(ix, q, cfg)
	if err != nil {
		return nil, err
	}
	if e.member = true; spine {
		e.rootVia = 0
	}
	return e, nil
}

// New validates cfg and builds an engine for query q over the indexed
// document ix, which must be the whole corpus.
func New(ix index.Source, q *pattern.Query, cfg Config) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(q.Size()); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		query:      q,
		maxContrib: make([]float64, q.Size()),
		minContrib: make([]float64, q.Size()),
		expContrib: make([]float64, q.Size()),
		vts:        make([]index.ValueTest, q.Size()),
		probes:     make([]index.Probe, q.Size()),
	}
	if p := cfg.Plan; p != nil {
		if err := p.checkAgainst(q, &cfg); err != nil {
			return nil, err
		}
		e.plans, e.fanout, e.satisfyProb = p.Plans, p.Fanout, p.SatisfyProb
	} else {
		// No plan: run the statistics pass over ix, which must then be
		// the whole corpus (score.CollectStats) — the facade and
		// shard.NewEngines always pass a plan instead.
		e.plans = relax.BuildPlans(q, cfg.Relax)
		e.fanout, e.satisfyProb = routingStats(e.plans, score.CollectStats(ix, nil, q))
	}
	for id, n := range q.Nodes {
		e.vts[id] = index.Test(n.ValueOp, n.Value)
		if id > 0 {
			e.probes[id] = ix.Probe(e.plans[id].Tag, e.vts[id])
		}
	}
	e.roots = ix.NodesMatching(q.Root().Tag, e.vts[0])
	if e.rootVia = e.shortestPostings(ix); e.rootVia != 0 {
		e.post = ix.NodesMatching(q.Nodes[e.rootVia].Tag, e.vts[e.rootVia])
	}
	for id := 0; id < q.Size(); id++ {
		e.maxContrib[id] = cfg.Scorer.MaxContribution(id)
		e.minContrib[id] = cfg.Scorer.MinContribution(id)
		e.expContrib[id] = cfg.Scorer.ExpectedContribution(id)
		if e.maxContrib[id] < 0 {
			return nil, fmt.Errorf("core: negative max contribution for node %d", id)
		}
		e.allVisited |= 1 << uint(id)
		if id > 0 {
			e.sumMax += e.maxContrib[id]
		}
	}
	switch {
	case cfg.Order != nil:
		e.order = cfg.Order
	case cfg.Plan != nil && len(cfg.Plan.Order) == q.Size()-1:
		e.order = cfg.Plan.Order
	default:
		e.order = make([]int, 0, q.Size()-1)
		for id := 1; id < q.Size(); id++ {
			e.order = append(e.order, id)
		}
	}
	return e, nil
}

// Query returns the engine's tree pattern.
func (e *Engine) Query() *pattern.Query { return e.query }

// shortestPostings applies the size rule of Section 6.1.4 to server 0:
// the valued non-root node with the shortest posting list, if shorter
// than the root's own candidate list, else 0 — a root with no such
// posting beneath it cannot bind the node. An inner node whose deletion
// constrains its pattern children (no subtree promotion) is skipped.
func (e *Engine) shortestPostings(ix index.Source) (via int) {
	best, rel := len(e.roots), e.cfg.Relax
	for id := 1; id < e.query.Size(); id++ {
		n := e.query.Nodes[id]
		if e.vts[id].Any() || len(n.Children) > 0 && rel.Has(relax.LeafDeletion) && !rel.Has(relax.SubtreePromotion) {
			continue
		}
		if l := len(ix.NodesMatching(n.Tag, e.vts[id])); l < best {
			best, via = l, id
		}
	}
	return via
}

// RootVia names the root server's access path: "scan" or "postings:<tag>".
func (e *Engine) RootVia() string {
	if e.rootVia == 0 {
		return "scan"
	}
	return "postings:" + e.query.Nodes[e.rootVia].Tag
}

// Run executes the configured algorithm and returns the top-k answers
// with instrumentation.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: when ctx is cancelled the
// evaluation winds down promptly and ctx's error is returned (any
// partial result is discarded).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := e.open(ctx, nil, 0)
	p.drive()
	stats, err := p.finish()
	var res *Result
	if err == nil {
		res = &Result{Answers: p.topk.answers(), Stats: stats}
	}
	p.release()
	return res, err
}

// RunShared executes the configured algorithm against a caller-supplied
// top-k set, offering guaranteed scores into it and pruning against its
// threshold: one shard of a sharded evaluation run to completion on the
// calling goroutine. Several engines over disjoint data shards may run
// against one SharedTopK (each with a distinct shardID for prune
// attribution); the set's Answers — not any single run's — are the
// merged result. The set's capacity must equal the engine's Config.K.
func (e *Engine) RunShared(ctx context.Context, shared *SharedTopK, shardID int) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	p, err := e.NewParallelRun(ctx, shared, shardID)
	if err != nil {
		return Stats{}, err
	}
	p.drive()
	return p.Finish()
}

// traceStart emits the RunStart trace event.
func (r *run) traceStart() {
	if t := r.cfg.Trace; t != nil {
		t.RunStart(obs.RunInfo{
			Algorithm:  r.cfg.Algorithm.String(),
			Routing:    r.cfg.Routing.String(),
			Queue:      r.cfg.Queue.String(),
			K:          r.cfg.K,
			QueryNodes: r.query.Size(),
			RootVia:    r.RootVia(),
		})
	}
}

// guaranteedPartial reports whether a partial match's current score is a
// guaranteed lower bound for its root (true under leaf deletion: the
// match completed by deleting every remaining node is a valid answer).
func (e *Engine) guaranteedPartial() bool { return e.cfg.Relax.Has(relax.LeafDeletion) }

// priority computes a match's queue priority under the configured
// discipline. serverID is the queue's server, or -1 for the router queue.
func (e *Engine) priority(m *match, serverID int) float64 {
	switch e.cfg.Queue {
	case QueueFIFO:
		return -float64(m.seq)
	case QueueCurrentScore:
		return m.score
	case QueueMaxNext:
		if serverID >= 0 {
			return m.score + e.maxContrib[serverID]
		}
		return m.maxFinal
	default: // QueueMaxFinal
		return m.maxFinal
	}
}

// spin burns CPU for d, simulating per-operation join cost (Figure 8).
// The deadline is computed once up front; the loop then busy-waits
// against the monotonic clock with no runtime.Gosched — yielding would
// let other server goroutines interleave and under-report the simulated
// cost. Bounded by d, so cancellation polling is not needed here.
// +whirllint:busywait
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// rootCursor is the root server as a stream: every document node
// matching the root tag/value and the root's structural predicate spawns
// a partial match, one per next call. The run's queue carries it
// (pq.pull) and materialises a root only when it could be the next pop;
// the drivers with no single queue drain it up front. Counters reach the
// run's atomics per flush.
//
// The scan walks cands, the root's own candidates, in document order.
// The posting path (Engine.rootVia) climbs instead, lazily, from each
// posting to its root-tag ancestors below the last root considered —
// from that root up, all came with an earlier posting — which is the
// root set in document order unless leaf deletion makes via optional:
// then a second segment walks the cands not reached, born with via
// deleted, under bounds lowered by via's maximum contribution.
type rootCursor struct {
	r     *run
	cands []*xmltree.Node
	pos   int
	// prioBound and finalBound bound, from above, the router-queue
	// priority and the maxFinal of every root not yet materialised.
	prioBound, finalBound float64
	made, compared        int64           // not yet flushed into r.stats
	post                  []*xmltree.Node // via's postings, walked by pi in either segment
	pi                    int
	last                  int32 // ordinal of the last root the climb considered
	reached               int   // roots the climb reached that the second segment has yet to skip
	second                bool  // in the second segment
}

// seedRoots points the run's cursor at the root candidates and postings.
func (r *run) seedRoots() *rootCursor {
	e := r.Engine
	r.roots = rootCursor{r: r, cands: e.roots, last: -1}
	if e.rootVia != 0 {
		r.roots.post = e.post
	}
	r.roots.bound(e.maxContrib[0] + e.sumMax)
	return &r.roots
}

// bound sets both bounds from the highest maxFinal a root to come can
// have. FIFO's arrival order has no useful bound: the first pull drains.
func (c *rootCursor) bound(maxFinal float64) {
	e := c.r.Engine
	top := match{score: e.maxContrib[0], maxFinal: maxFinal}
	c.prioBound, c.finalBound = e.priority(&top, -1), maxFinal
	if e.cfg.Queue == QueueFIFO {
		c.prioBound = math.Inf(1)
	}
}

// lower opens the second segment, if there is one to open.
func (c *rootCursor) lower() bool {
	e := c.r.Engine
	if e.rootVia == 0 || c.second || !e.cfg.Relax.Has(relax.LeafDeletion) {
		return false
	}
	c.second, c.pi = true, 0
	c.bound(c.finalBound - e.maxContrib[e.rootVia])
	return true
}

// candidate returns the segment's next root candidate, nil at its end.
func (c *rootCursor) candidate() *xmltree.Node {
	e := c.r.Engine
	if e.rootVia != 0 && !c.second {
		return c.climb()
	}
	for c.pos < len(c.cands) {
		n := c.cands[c.pos]
		c.pos++
		// Second segment (a scan has no postings): the first posting
		// after n lies below n iff any does, and then n was reached.
		for c.pi < len(c.post) && c.post[c.pi].Ord <= n.Ord {
			c.pi++
		}
		if c.pi == len(c.post) || c.post[c.pi].Ord > n.End {
			return n
		}
		c.reached--
	}
	return nil
}

// climb returns the next root the postings reach: the outermost new
// root-tag ancestor of the posting in hand, kept while it has a deeper
// one. Only a member must look it up among its own candidates.
func (c *rootCursor) climb() *xmltree.Node {
	e := c.r.Engine
	rootTag := e.query.Root().Tag
	for c.pi < len(c.post) {
		var top *xmltree.Node
		nested := false
		for a := c.post[c.pi].Parent; a != nil && a.Ord > c.last; a = a.Parent {
			if a.Tag == rootTag {
				top, nested = a, top != nil
			}
		}
		if !nested {
			c.pi++
		}
		if top == nil {
			continue
		}
		c.last = top.Ord
		own := e.vts[0].Matches(top.Value)
		if e.member {
			_, own = slices.BinarySearchFunc(c.cands, top.Ord, func(n *xmltree.Node, ord int32) int { return int(n.Ord - ord) })
		}
		if own {
			c.reached++
			return top
		}
	}
	return nil
}

// next materialises the segment's next admissible root; nil ends it.
func (c *rootCursor) next() *match {
	e := c.r.Engine
	for n := c.candidate(); n != nil; n = c.candidate() {
		c.compared++
		variant := score.Exact
		// The root predicate's anchor is the document's virtual parent,
		// level 0 and an ancestor of every node: only the depth decides.
		if !e.plans[0].RootPath.DepthHoldsExact(n.Level()) {
			// /tag with a non-root binding: admissible only under edge
			// generalization of the root edge.
			if !e.cfg.Relax.Has(relax.EdgeGeneralization) {
				continue
			}
			variant = score.Relaxed
		}
		contrib := e.cfg.Scorer.Contribution(0, variant, n)
		m := c.r.arena.get()
		m.bindings[0] = n
		m.visited = 1
		m.score = contrib
		m.maxFinal = contrib + e.sumMax
		if via := uint(e.rootVia); c.second { // what process at server via would have made of it
			m.visited, m.missing = 1|1<<via, 1<<via
			m.maxFinal -= e.maxContrib[via]
		}
		m.seq = c.r.nextSeq()
		c.made++
		return m
	}
	return nil
}

// drain materialises every root there is, for the drivers that seed up front.
func (c *rootCursor) drain(each func(*match)) {
	for more := true; more; more = c.lower() {
		for m := c.next(); m != nil; m = c.next() {
			each(m)
		}
	}
	c.flush()
}

// flush publishes the roots materialised since the last flush: one
// server op and one created match each.
func (c *rootCursor) flush() {
	if c.compared == 0 {
		return
	}
	st := &c.r.stats
	st.joinComparisons.Add(c.compared)
	st.serverOps.Add(c.made)
	st.matchesCreated.Add(c.made)
	st.roots.Add(c.made)
	c.r.traceMatch(obs.MatchesSpawned, int(c.made))
	c.made, c.compared = 0, 0
}
