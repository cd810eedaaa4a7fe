package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
	x     Experiment
	query *pattern.Query
	plans []*relax.ServerPlan
	doc   *xmltree.Columns // the document every binding is an ordinal of

	maxContrib  []float64 // per query node
	minContrib  []float64
	expContrib  []float64
	fanout      []float64 // expected extensions per satisfying root
	satisfyProb []float64 // fraction of roots with ≥1 candidate
	sumMax      float64   // Σ maxContrib over non-root nodes
	// penalty is, per server, what an inexact one (rootCursor.absent)
	// takes off a root's bound on a relaxed run: maxContrib less the
	// scorer's relaxed maximum (score.RelaxedBounder), else 0.
	penalty []float64
	// depthTested has the servers the root cursor tests at the pattern's
	// exact depth: those whose root path a depth can fail and whose
	// relaxed maximum the scorer puts below maxContrib. TFIDF's two idfs
	// are equal when every root holding a server holds it at the exact
	// depth, and the test costs a load per root and server, so a server
	// whose variants score alike goes untested. A scorer without a
	// relaxed maximum has every such server tested on an exact run and
	// none on a relaxed one. None under PaperRoots.
	depthTested uint64
	allVisited  uint64
	order       []int             // static order (defaulted; parents first when parentBit is set)
	parentBit   []uint64          // per server: its pattern parent's visited bit when parents go first, else 0
	vts         []index.ValueTest // per-node content predicates
	probes      []index.Probe     // per-server (tag, value test), resolved once
	rootVia     int               // valued node whose postings stream the roots; 0 = scan (rootCursor)
	roots, post []uint32          // the root's candidates and rootVia's postings
	rootTag     index.Probe       // the root's tag, any value: the climb's ancestor test

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
// evaluations, a sharded one counted once. Safe for concurrent use with
// in-flight runs.
func (e *Engine) Totals() Totals {
	e.totalsMu.Lock()
	defer e.totalsMu.Unlock()
	return e.totals
}

// Record adds one completed evaluation to the engine's totals — a run
// and its stats — or, when err is set, one aborted run. Runs record
// themselves; a sharded evaluation, whose shard runs do not, records its
// merged stats here once.
func (e *Engine) Record(st Stats, err error) {
	e.totalsMu.Lock()
	defer e.totalsMu.Unlock()
	if err != nil {
		e.totals.Aborted++
		return
	}
	e.totals.Runs++
	e.totals.Stats.Add(st)
}

// New validates cfg and builds an engine for query q over the indexed
// document ix.
func New(ix index.Source, q *pattern.Query, cfg Config) (*Engine, error) {
	return NewExperiment(ix, q, cfg, Experiment{})
}

// NewExperiment is New with the experiment-only knobs x set: the
// paper's figures and the tests build engines here, nothing that serves
// does.
func NewExperiment(ix index.Source, q *pattern.Query, cfg Config, x Experiment) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(q.Size()); err != nil {
		return nil, err
	}
	n := q.Size()
	f := make([]float64, 4*n) // the four per-node bounds, one allocation
	e := &Engine{
		cfg:        cfg,
		x:          x,
		query:      q,
		doc:        ix.Cols(),
		maxContrib: f[:n:n],
		minContrib: f[n : 2*n : 2*n],
		expContrib: f[2*n : 3*n : 3*n],
		penalty:    f[3*n:],
		vts:        make([]index.ValueTest, n),
		probes:     make([]index.Probe, n),
		parentBit:  make([]uint64, n),
	}
	if p := cfg.Plan; p != nil {
		if err := p.checkAgainst(q, &cfg); err != nil {
			return nil, err
		}
		e.plans, e.fanout, e.satisfyProb = p.Plans, p.Fanout, p.SatisfyProb
	} else {
		// No plan: run the statistics pass over ix (score.CollectStats);
		// the facade always passes a plan instead.
		e.plans = relax.BuildPlans(q, cfg.Relax)
		e.fanout, e.satisfyProb = routingStats(e.plans, score.CollectStats(ix, nil, q))
	}
	for id, n := range q.Nodes {
		e.vts[id] = index.Test(n.ValueOp, n.Value)
		if id > 0 {
			e.probes[id] = ix.Probe(e.plans[id].Tag, e.vts[id])
		}
	}
	e.roots = ix.Ords(q.Root().Tag, e.vts[0])
	e.rootTag = ix.Probe(q.Root().Tag, index.ValueTest{})
	if e.rootVia = e.shortestPostings(); e.rootVia != 0 {
		e.post = e.probes[e.rootVia].Ords()
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
	if !x.PaperRoots {
		rb, _ := cfg.Scorer.(score.RelaxedBounder)
		for id := 1; id < q.Size(); id++ {
			if rp := e.plans[id].RootPath; !rp.Exact && rp.MinLevels <= 1 {
				continue // every posting below a root is at an exact depth
			}
			switch {
			case rb == nil:
				if cfg.Relax != relax.None {
					continue // no relaxed maximum to lower a bound to
				}
			case e.maxContrib[id] <= rb.MaxRelaxedContribution(id):
				continue // variants alike: the test would cost, rarely kill
			case cfg.Relax != relax.None:
				e.penalty[id] = e.maxContrib[id] - rb.MaxRelaxedContribution(id)
			}
			e.depthTested |= 1 << uint(id)
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
	// Leaf deletion without subtree promotion cannot delete a parent
	// over a bound child, so there parents go first: a child bound ahead
	// of its parent would keep its score when the parent turns out
	// missing.
	if cfg.Relax.Has(relax.LeafDeletion) && !cfg.Relax.Has(relax.SubtreePromotion) {
		for id := 1; id < q.Size(); id++ {
			e.parentBit[id] = 1 << uint(q.Nodes[id].Parent)
		}
		e.order = parentsFirst(e.order, e.parentBit)
	}
	return e, nil
}

// parentsFirst returns order with each server moved after its pattern
// parent and the order otherwise kept. LockStep's phases follow the
// static order without routing a match, so the order itself must put
// parents first.
func parentsFirst(order []int, parentBit []uint64) []int {
	out := make([]int, 0, len(order))
	placed := uint64(1) // the root
	for len(out) < len(order) {
		for _, id := range order {
			if placed&(1<<uint(id)) == 0 && placed&parentBit[id] != 0 {
				out = append(out, id)
				placed |= 1 << uint(id)
				break
			}
		}
	}
	return out
}

// Query returns the engine's tree pattern.
func (e *Engine) Query() *pattern.Query { return e.query }

// shortestPostings applies the size rule of Section 6.1.4 to server 0:
// the valued non-root node with the shortest posting list, if shorter
// than the root's own candidate list, else 0 — a root with no such
// posting beneath it cannot bind the node. An inner node whose deletion
// constrains its pattern children (no subtree promotion) is skipped.
func (e *Engine) shortestPostings() (via int) {
	best, rel := len(e.roots), e.cfg.Relax
	for id := 1; id < e.query.Size(); id++ {
		n := e.query.Nodes[id]
		if e.vts[id].Any() || len(n.Children) > 0 && rel.Has(relax.LeafDeletion) && !rel.Has(relax.SubtreePromotion) {
			continue
		}
		if l := len(e.probes[id].Ords()); l < best {
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
	p := e.open(ctx, nil, 0, 0, len(e.roots))
	p.Drive()
	stats, err := p.finish()
	var res *Result
	if err == nil {
		res = &Result{Answers: p.topk.answers(), Stats: stats}
	}
	p.release()
	return res, err
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
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// rootCursor is the root server as a stream: every document node
// matching the root tag/value and the root's structural predicate spawns
// a partial match, one per next call. The router queue — Whirlpool-S's
// or Whirlpool-M's — carries it (pq.pull) and materialises a root only
// when it could be the next pop; LockStep drains it up front. Counters
// reach the run's counters per flush.
//
// The cursor covers the run's slice of the root candidates, cands: all
// of them, or one shard's contiguous range (NewShardRun). The scan walks
// cands in document order. The posting path (Engine.rootVia) climbs
// instead, lazily, from each posting to its root-tag ancestors below the
// last root considered — from that root up, all came with an earlier
// posting — which is the slice in document order. The climb starts just
// before the slice's first root, from the first posting past it (an
// earlier posting has no ancestor that late), and stops at the first
// root-tag node it reaches at or past end, the next slice's first root:
// the climb's roots only ascend.
//
// Each root it materialises carries its own bound (Section 5's maximum
// possible final score, per root): a streaming semi-join (absent) finds
// the servers with no posting in the root's subtree, and among the
// others those the engine tests at depth (Engine.depthTested) with no
// posting at the pattern's exact depth below the root: inexact. An
// absent server can only fail the root: without leaf deletion the root
// dies at the cursor, counted in JoinComparisons only; with it the root
// is born past the server, visited and missing, as process would have
// made it, and its maximum contribution leaves maxFinal. An inexact
// server can bind only relaxed: on an exact run the root dies at the
// cursor too, and on a relaxed one the server adds at most the scorer's
// relaxed maximum, its penalty short of maxContrib. The penalty decides
// at birth alone: a root whose bound, lowered by it, cannot beat
// currentTopK is pruned there, and a root born keeps maxFinal unlowered,
// as the server's extension releases its whole maxContrib. Roots ascend
// within a segment, so each server's test is one forward pointer over
// its postings (run.at), galloping across a gap and reset when a segment
// opens; the depth test walks on from it, to the first posting at the
// exact depth or past the subtree, and leaves the pointer where it was,
// as a later root may nest inside this one. The valued node the climb
// streams roots from is tested at depth too, on a pointer of its own.
// Experiment.PaperRoots turns both tests off: every root then carries
// the paper's uniform bound.
//
// The stream comes in segments, each in document order and each bounded
// by its own maxFinal (bounds): segFull, the roots with a posting of
// every server, at the exact depth for each with a penalty, which is all
// an exact run makes; then, on a relaxed run with a penalty, segInexact,
// the rest of those with a posting of every server; then, under leaf
// deletion, segRest, the rest of the climb or scan, born past a server;
// then, on the posting path, segDeleted, the candidates the climb did
// not reach, born with via deleted. segFull's climb or scan is the run's
// one walk of the candidates: it tests each root once and files those
// of segInexact and segRest (run.files), which then read their file;
// segDeleted reads cands against the postings. LockStep, which
// materialises every root anyway, skips the full pass: its segFull
// streams every root segInexact and segRest would (seedRoots).
type rootCursor struct {
	r     *run
	cands []uint32
	pos   int
	// prioBound and finalBound bound, from above, the router-queue
	// priority and the maxFinal of every root not yet materialised:
	// the open segment's bound and every later one's.
	prioBound, finalBound float64
	bounds                [numSegs]float64 // each segment's own maxFinal bound, -Inf where it does not run
	seg                   int              // the open segment
	made, compared        int64            // not yet flushed into r.stats
	list                  []uint32         // what the open segment reads by pos: cands, or its file (run.files)
	post                  []uint32         // via's postings past the slice's first root, walked by pi
	pi                    int
	last                  int32 // ordinal of the last root the climb considered
	end                   int32 // the next slice's first root, or past every ordinal
	settled               int   // candidates materialised or rejected, each once
}

// The root cursor's segments, in the order they open.
const (
	segFull    = iota // every server has a posting below the root, at the exact depth if it costs
	segInexact        // every server has one, some with a penalty only at another depth
	segRest           // some server has none: born past it
	segDeleted        // the posting path's unreached candidates: born with via deleted
	numSegs
)

// seedRoots points the run's cursor at its slice of the root candidates
// and at the postings past the slice's first root, and opens its first
// segment. Without fullPass (LockStep) segFull streams every root the
// climb or scan keeps, in document order.
func (r *run) seedRoots(fullPass bool) *rootCursor {
	e := r.Engine
	r.roots = rootCursor{r: r, cands: e.roots[r.lo:r.hi], end: math.MaxInt32, seg: -1}
	c := &r.roots
	r.files[0], r.files[1] = r.files[0][:0], r.files[1][:0]
	if r.hi < len(e.roots) {
		c.end = int32(e.roots[r.hi])
	}
	if e.rootVia != 0 && r.lo < r.hi {
		cut, _ := slices.BinarySearch(e.post, e.roots[r.lo]+1)
		c.post, c.last = e.post[cut:], int32(e.roots[r.lo])-1
	}
	full, none := e.maxContrib[0]+e.sumMax, math.Inf(-1)
	c.bounds = [numSegs]float64{full, none, none, none}
	ld := e.cfg.Relax.Has(relax.LeafDeletion)
	if ld && e.rootVia != 0 {
		c.bounds[segDeleted] = full - e.maxContrib[e.rootVia]
	}
	if !e.x.PaperRoots && fullPass {
		// A segInexact root loses at least its cheapest penalty, and a
		// segRest one misses at least its cheapest server (never via);
		// with none to lose, the segment has no root.
		cheapest, least := none, none
		for id := 1; id < len(e.maxContrib); id++ {
			if p := e.penalty[id]; p > 0 && (cheapest == none || p < cheapest) {
				cheapest = p
			}
			if id != e.rootVia && (least == none || e.maxContrib[id] < least) {
				least = e.maxContrib[id]
			}
		}
		if cheapest != none {
			c.bounds[segInexact] = full - cheapest
		}
		if ld && least != none {
			c.bounds[segRest] = full - least
		}
	}
	c.lower()
	return c
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

// cut reports whether no root still to come can beat currentTopK. A
// tie cuts only when every such root comes after the threshold's k-th
// root (topkSet.after): those of the open segment follow the last one
// it considered, and a later segment that can tie too may start as
// early as the slice's first root.
func (c *rootCursor) cut() bool {
	t, ok := c.r.topk.threshold()
	if !ok || c.finalBound > t+pruneEps {
		return false
	}
	if c.finalBound < t-pruneEps {
		return true
	}
	next := int32(math.MaxInt32)
	switch {
	case c.climbs():
		next = c.last + 1
	case c.pos < len(c.list):
		next = int32(c.list[c.pos])
	}
	for _, b := range c.bounds[c.seg+1:] {
		if b >= t-pruneEps && len(c.cands) > 0 {
			next = int32(c.cands[0])
		}
	}
	return c.r.topk.after(next)
}

// lower opens the next segment that runs, if there is one: segFull and
// segDeleted read the slice's candidates from the first, segInexact and
// segRest the file segFull left them, which the segDeleted merge in
// candidate passes whole.
func (c *rootCursor) lower() bool {
	for c.seg++; c.seg < len(c.bounds); c.seg++ {
		if c.bounds[c.seg] == math.Inf(-1) {
			continue
		}
		c.pos, c.pi, c.list = 0, 0, c.cands
		if c.seg == segInexact || c.seg == segRest {
			c.pi, c.list = len(c.post), c.r.files[c.seg-segInexact]
		}
		clear(c.r.at)
		c.bound(slices.Max(c.bounds[c.seg:]))
		return true
	}
	return false
}

// climbs reports whether the open segment climbs from via's postings.
func (c *rootCursor) climbs() bool { return c.r.rootVia != 0 && c.seg == segFull }

// candidate returns the segment's next root candidate, -1 at its end.
func (c *rootCursor) candidate() int32 {
	if c.climbs() {
		return c.climb()
	}
	e := c.r.Engine
	for c.pos < len(c.list) {
		n := c.list[c.pos]
		c.pos++
		// segDeleted (a scan has no postings): the first posting after
		// n lies below n iff any does, and then n was reached.
		for c.pi < len(c.post) && c.post[c.pi] <= n {
			c.pi++
		}
		if c.pi == len(c.post) || int32(c.post[c.pi]) > e.doc.End(int32(n)) {
			return int32(n)
		}
	}
	return -1
}

// climb returns the next root the postings reach: the outermost new
// root-tag ancestor of the posting in hand, kept while it has a deeper
// one, found up the parent column.
func (c *rootCursor) climb() int32 {
	e := c.r.Engine
	doc := e.doc
	for c.pi < len(c.post) {
		top := int32(-1)
		nested := false
		for a := doc.Parent(int32(c.post[c.pi])); a > c.last; a = doc.Parent(a) {
			if e.rootTag.Has(a) {
				top, nested = a, top >= 0
			}
		}
		if !nested {
			c.pi++
		}
		if top < 0 {
			continue
		}
		if top >= c.end {
			c.pi = len(c.post)
			break
		}
		c.last = top
		if e.vts[0].Matches(doc.Value(top)) {
			return top
		}
	}
	return -1
}

// next materialises the segment's next admissible root; nil ends it.
// Each candidate is settled once: segFull materialises, rejects or
// prunes its own, and files a segInexact or segRest one for that
// segment, which settles it in turn.
func (c *rootCursor) next() *match {
	e := c.r.Engine
	rel := e.cfg.Relax
	ld := rel.Has(relax.LeafDeletion)
	for n := c.candidate(); n >= 0; n = c.candidate() {
		c.compared++
		var absent, inexact uint64
		if !e.x.PaperRoots {
			// Without leaf deletion an absent server kills the root; with
			// it, segFull files the root for segRest if that runs.
			absent, inexact = c.absent(n, !ld || c.seg == segFull && c.bounds[segRest] != math.Inf(-1))
			if c.seg == segFull {
				seg := segFull
				switch {
				case absent != 0 && !ld, inexact != 0 && rel == relax.None:
					c.settled++ // no server may go missing or bind relaxed: the root cannot answer
					continue
				case absent != 0:
					seg = segRest
				case inexact != 0:
					seg = segInexact
				}
				if seg != segFull && c.bounds[seg] != math.Inf(-1) {
					c.r.files[seg-segInexact] = append(c.r.files[seg-segInexact], uint32(n))
					continue
				}
			}
		}
		if c.seg == segDeleted {
			absent |= 1 << uint(e.rootVia)
		}
		c.settled++
		variant := score.Exact
		// The root predicate's anchor is the document's virtual parent,
		// level 0 and an ancestor of every node: only the depth decides.
		if !e.plans[0].RootPath.DepthHoldsExact(int(e.doc.Level[n])) {
			// /tag with a non-root binding: admissible only under edge
			// generalization of the root edge.
			if !rel.Has(relax.EdgeGeneralization) {
				continue
			}
			variant = score.Relaxed
		}
		contrib := e.cfg.Scorer.Contribution(0, variant, n)
		maxFinal := contrib + e.sumMax
		for b := absent; b != 0; b &= b - 1 {
			maxFinal -= e.maxContrib[bits.TrailingZeros64(b)]
		}
		if inexact != 0 && e.cfg.Algorithm != LockStepNoPrune {
			lowered := maxFinal
			for b := inexact; b != 0; b &= b - 1 {
				lowered -= e.penalty[bits.TrailingZeros64(b)]
			}
			if c.r.outranked(lowered, n) {
				c.r.prune(1, belowTopK)
				continue
			}
		}
		m := c.r.arena.get()
		m.bindings[0] = n
		m.score = contrib
		m.maxFinal = maxFinal
		// Born past each absent server: what process there would have made of it.
		m.visited, m.missing = 1|absent, absent
		m.seq = c.r.nextSeq()
		c.made++
		return m
	}
	return nil
}

// absent returns, as query-node bits, the servers with no posting
// inside n's subtree, (n, End(n)], and among the others those
// Engine.depthTested with none there at the pattern's exact depth below
// n, inexact; with first it stops at the first absent server. n exceeds
// every root tested before it in the segment, so each pointer only
// moves forward: past n, galloping. The depth test walks on from the
// pointer without moving it, as a later root may nest inside n. The
// valued node the postings stream roots from has a posting below every
// root the climb reached and none below a segDeleted one, so it is
// tested at depth only, and not in segDeleted.
func (c *rootCursor) absent(n int32, first bool) (absent, inexact uint64) {
	e, at, doc := c.r.Engine, c.r.at, c.r.doc
	end := uint32(doc.End(n))
	for id := 1; id < len(e.probes); id++ {
		if id == e.rootVia && (c.seg == segDeleted || e.depthTested&(1<<uint(id)) == 0) {
			continue
		}
		g, i := e.probes[id].Ords(), at[id]
		if i < len(g) && g[i] <= uint32(n) {
			i = index.Gallop(g, i, uint32(n))
			at[id] = i
		}
		if i == len(g) || g[i] > end {
			if absent |= 1 << uint(id); first {
				return absent, 0
			}
		}
	}
	// The depth walks load a level per posting, so they come last, on
	// the servers present; an exact run stops at the first inexact one.
	tested := e.depthTested &^ absent
	if c.seg == segDeleted {
		tested &^= 1 << uint(e.rootVia)
	}
	for b := tested; b != 0; b &= b - 1 {
		id := bits.TrailingZeros64(b)
		g, rp, i := e.probes[id].Ords(), e.plans[id].RootPath, at[id]
		for i < len(g) && g[i] <= end && !rp.DepthHoldsExact(int(doc.Level[g[i]]-doc.Level[n])) {
			i++
		}
		if i == len(g) || g[i] > end {
			if inexact |= 1 << uint(id); e.cfg.Relax == relax.None {
				break
			}
		}
	}
	return absent, inexact
}

// drain materialises every root there is, for LockStep's first phase.
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
	st.add(ctrJoinComparisons, c.compared)
	st.add(ctrServerOps, c.made)
	st.add(ctrMatchesCreated, c.made)
	st.add(ctrRoots, c.made)
	c.r.traceMatch(obs.MatchesSpawned, int(c.made))
	c.made, c.compared = 0, 0
}
