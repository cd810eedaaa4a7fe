// Package whirlpool is an adaptive top-k query processor for XML,
// reproducing "Adaptive Processing of Top-k Queries in XML" (Marian,
// Amer-Yahia, Koudas, Srivastava; ICDE 2005).
//
// It evaluates tree-pattern queries (an XPath subset) over XML documents
// and returns the k best answers, exact or approximate. Approximation is
// defined by query relaxation — edge generalization, leaf deletion and
// subtree promotion — and answers are ranked with an XML-specific tf*idf
// scoring function. Evaluation is adaptive: each partial match is routed
// individually through per-query-node servers, and matches that cannot
// reach the current top-k are pruned early.
//
// Basic usage:
//
//	db, _ := whirlpool.LoadFile("catalog.xml")
//	q, _ := whirlpool.ParseQuery("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
//	res, _ := db.TopK(q, whirlpool.Options{K: 5})
//	for _, a := range res.Answers {
//	    fmt.Println(a.Score, a.Root.Path())
//	}
//
// The four evaluation algorithms of the paper (Whirlpool-S, Whirlpool-M,
// LockStep, LockStep-NoPrun), its routing strategies and queue
// disciplines are all selectable through Options.
package whirlpool

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Re-exported building blocks. Aliases make the full vocabulary of the
// engine available from the public package.
type (
	// Node is one node of a parsed XML document.
	Node = xmltree.Node
	// Document is a parsed XML forest.
	Document = xmltree.Document
	// Query is a tree pattern (an XPath subset).
	Query = pattern.Query
	// QueryNode is one node of a tree pattern.
	QueryNode = pattern.Node
	// Stats instruments an evaluation (server operations, join
	// comparisons, partial matches created, pruned, duration).
	Stats = core.Stats
	// Algorithm selects the evaluation strategy.
	Algorithm = core.Algorithm
	// Routing selects the adaptive routing strategy.
	Routing = core.Routing
	// Queue selects the priority queue discipline.
	Queue = core.Queue
	// Relaxation is the set of enabled query relaxations.
	Relaxation = relax.Relaxation
	// Normalization selects the tf*idf score normalization.
	Normalization = score.Normalization
	// Scorer computes score contributions; implement it to rank with a
	// custom function.
	Scorer = score.Scorer
	// Explanation reports how one query node was satisfied in an answer.
	Explanation = core.Explanation
	// MatchKind classifies an Explanation (exact, edge-generalized,
	// promoted, deleted).
	MatchKind = core.MatchKind
	// TraceSink receives per-run observability events (routing
	// decisions, prune-threshold trajectory, queue depth samples, match
	// lifecycle counts); see internal/obs for ready-made sinks and
	// Options.Trace to attach one.
	TraceSink = obs.TraceSink
	// EngineTotals is an engine's cumulative instrumentation across
	// runs; see Engine.Totals.
	EngineTotals = core.Totals
)

// Explanation kinds.
const (
	MatchExact           = core.MatchExact
	MatchEdgeGeneralized = core.MatchEdgeGeneralized
	MatchPromoted        = core.MatchPromoted
	MatchDeleted         = core.MatchDeleted
)

// Explain classifies every query node of an answer: which bindings are
// exact, which required edge generalization or subtree promotion, and
// which were relaxed away.
func Explain(q *Query, a Answer) []Explanation { return core.Explain(q, a.Bindings) }

// Result is the outcome of a top-k evaluation: answers plus stats.
type Result struct {
	// Answers holds at most K answers with distinct roots, best first
	// (ties broken by document order of the root).
	Answers []Answer
	// Stats holds the run's instrumentation.
	Stats Stats
}

// Answer is one ranked answer.
type Answer struct {
	// Root is the matched instantiation of the query's returned node.
	Root *Node
	// Bindings maps query node ID to the bound document node; nil means
	// the node was relaxed away (leaf deletion).
	Bindings []*Node
	// Score is the answer's final score.
	Score float64
}

// resolve turns an engine result, whose answers are preorder ordinals of
// src's document, into one over src's node slab — built on the first
// call. It costs three allocations per result, none per answer.
func resolve(src index.Source, res *core.Result) *Result {
	out := &Result{Answers: make([]Answer, len(res.Answers)), Stats: res.Stats}
	if len(res.Answers) == 0 {
		return out
	}
	nodes := src.Document().Nodes
	flat := make([]*Node, len(res.Answers)*len(res.Answers[0].Bindings))
	for i, a := range res.Answers {
		b := flat[:len(a.Bindings):len(a.Bindings)]
		flat = flat[len(a.Bindings):]
		for j, o := range a.Bindings {
			if o >= 0 {
				b[j] = nodes[o]
			}
		}
		out.Answers[i] = Answer{Root: nodes[a.Root], Bindings: b, Score: a.Score}
	}
	return out
}

// Engine is a prepared evaluator for one (document, query, options)
// combination, reusable across runs. It embeds the core engine, whose
// answers are document ordinals, and resolves them to nodes.
type Engine struct {
	*core.Engine
	src index.Source
}

// Run executes the configured algorithm and returns the top-k answers
// with instrumentation.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: when ctx is cancelled the
// evaluation winds down promptly and ctx's error is returned.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	res, err := e.Engine.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return resolve(e.src, res), nil
}

// Evaluation algorithms (Section 6.1.2 of the paper).
const (
	// WhirlpoolS is the single-threaded adaptive algorithm.
	WhirlpoolS = core.WhirlpoolS
	// WhirlpoolM is the multi-threaded algorithm (one goroutine per
	// server).
	WhirlpoolM = core.WhirlpoolM
	// LockStep processes all matches through one server at a time.
	LockStep = core.LockStep
	// LockStepNoPrune is LockStep without pruning.
	LockStepNoPrune = core.LockStepNoPrune
)

// Routing strategies (Section 6.1.4).
const (
	RoutingStatic   = core.RoutingStatic
	RoutingMaxScore = core.RoutingMaxScore
	RoutingMinScore = core.RoutingMinScore
	RoutingMinAlive = core.RoutingMinAlive
)

// Queue disciplines (Section 6.1.3).
const (
	QueueMaxFinal     = core.QueueMaxFinal
	QueueFIFO         = core.QueueFIFO
	QueueCurrentScore = core.QueueCurrentScore
	QueueMaxNext      = core.QueueMaxNext
)

// Relaxations (Section 2).
const (
	EdgeGeneralization = relax.EdgeGeneralization
	LeafDeletion       = relax.LeafDeletion
	SubtreePromotion   = relax.SubtreePromotion
	RelaxNone          = relax.None
	RelaxAll           = relax.All
)

// Score normalizations (Section 6.2.2).
const (
	NormRaw    = score.Raw
	NormSparse = score.Sparse
	NormDense  = score.Dense
)

// Database is a loaded, indexed XML document ready for querying. It
// serves from the document's columns; the node slab is built only when
// something asks for nodes (Document, or a facade answer).
type Database struct {
	ix index.Source
	// snap is non-nil when the database serves from an mmapped
	// snapshot (see OpenSnapshot): postings and the synopsis come from
	// the mapped file instead of being rebuilt.
	snap *store.SnapshotReader
	// syn is the structure synopsis (see Synopsis).
	syn *Synopsis
}

// Load parses an XML document (or forest) from r and indexes it: one
// scan into columns, from which the postings and the structure synopsis
// are built concurrently.
func Load(r io.Reader) (*Database, error) {
	heap := [...]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(heap[:])
	c, err := xmltree.ParseColumns(r)
	if err != nil {
		return nil, err
	}
	// The scan's input and scratch are dead now. When the scan allocated
	// more than the heap that was live before it — a boot, or any load
	// that dwarfs its process — collecting them before the build lanes
	// allocate keeps the peak near the scan's own rather than scan plus
	// build, and costs at most in proportion to the scan. A small load
	// into a large heap skips the collection, which would cost in
	// proportion to that heap.
	allocs := heap[0].Value.Uint64()
	metrics.Read(heap[:1])
	if heap[0].Value.Uint64()-allocs > heap[1].Value.Uint64() {
		runtime.GC()
	}
	return build(c, nil), nil
}

// LoadString parses and indexes a document held in a string.
func LoadString(s string) (*Database, error) { return Load(strings.NewReader(s)) }

// LoadFile parses and indexes the XML file at path.
func LoadFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// FromDocument indexes an already made document: its postings and
// synopsis are built concurrently from the columns it was built from.
func FromDocument(doc *Document) *Database { return build(doc.Columns(), doc) }

// build boots a database from a document's columns; doc is their node
// slab, or nil to build it only if nodes are asked for.
func build(c *xmltree.Columns, doc *Document) *Database {
	ix, syn := store.Build(c, doc)
	return &Database{ix: ix, syn: syn}
}

// LoadProjected parses XML from r keeping only the nodes the given
// queries can touch (their tags, plus every ancestor of a kept node).
// The projected database answers those queries exactly as a full load
// would — levels, containment and sibling order are preserved — while
// using far less memory on documents with rich irrelevant content.
func LoadProjected(r io.Reader, queries ...*Query) (*Database, error) {
	tags := make(map[string]bool)
	for _, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("whirlpool: nil query")
		}
		for _, n := range q.Nodes {
			tags[n.Tag] = true
		}
	}
	c, err := xmltree.ParseProjected(r, func(tag string) bool { return tags[tag] })
	if err != nil {
		return nil, err
	}
	return build(c, nil), nil
}

// SnapshotOptions is SaveSnapshot's options. It has no fields: a
// snapshot always holds the document, its postings and the structure
// synopsis, and nothing else.
type SnapshotOptions struct{}

// SaveSnapshot persists the database in the zero-copy WPXS snapshot
// format: a single page-aligned, checksummed file that OpenSnapshot
// mmaps and serves probes from directly — no parse, no index build, no
// synopsis build, and one kernel page cache shared by every process
// that opens it.
func (db *Database) SaveSnapshot(path string, _ SnapshotOptions) error {
	return store.SaveSnapshot(path, &store.Snapshot{Cols: db.ix.Cols(), Synopsis: db.Synopsis().Flatten()})
}

// OpenSnapshot opens a snapshot written by SaveSnapshot, mapping it
// read-only and serving queries from the mapped pages. The persisted
// synopsis (when present) seeds the planner. A checksum or format error is
// returned as-is so callers can fall back to the XML build path.
func OpenSnapshot(path string) (*Database, error) {
	r, err := store.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	return &Database{ix: r, snap: r, syn: r.Synopsis()}, nil
}

// SnapshotBacked reports whether the database serves from an mmapped
// snapshot.
func (db *Database) SnapshotBacked() bool { return db.snap != nil }

// Close releases the snapshot mapping, if any. The database must not
// be used afterwards. Databases not opened from a snapshot need no
// Close; calling it is a no-op.
func (db *Database) Close() error {
	if db.snap != nil {
		return db.snap.Close()
	}
	return nil
}

// Document returns the underlying document as a node slab, building it
// from the columns on the first call.
func (db *Database) Document() *Document { return db.ix.Document() }

// Columns returns the document's columns, which every engine ordinal
// (Engine's embedded core engine) indexes.
func (db *Database) Columns() *xmltree.Columns { return db.ix.Cols() }

// Size returns the number of nodes in the database.
func (db *Database) Size() int { return db.ix.Cols().Len() }

// ParseQuery parses the XPath subset used by the paper, e.g.
// "//item[./description/parlist and ./mailbox/mail/text]".
func ParseQuery(xpath string) (*Query, error) { return pattern.Parse(xpath) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(xpath string) *Query { return pattern.MustParse(xpath) }

// Options configures a top-k evaluation. The zero value asks for the
// paper's defaults: k = 10, Whirlpool-S, min_alive adaptive routing,
// max-possible-final queues, all relaxations, sparse tf*idf scoring.
type Options struct {
	// K is the number of answers (default 10).
	K int
	// Algorithm selects the evaluation strategy (default WhirlpoolS).
	Algorithm Algorithm
	// Routing selects the routing strategy (default RoutingMinAlive;
	// ignored by the LockStep algorithms).
	Routing Routing
	// Queue selects the queue discipline (default QueueMaxFinal).
	Queue Queue
	// Relax selects the enabled relaxations. Exactly RelaxNone computes
	// exact matches only; leaving Relax zero means RelaxNone, so set
	// RelaxAll (or use Approximate) for the paper's approximate mode.
	Relax Relaxation
	// Normalization selects the tf*idf normalization used when Scorer is
	// nil (default NormSparse).
	Normalization Normalization
	// Scorer overrides the default tf*idf scorer.
	Scorer Scorer
	// Order fixes the static server order for RoutingStatic/LockStep.
	Order []int
	// Trace, when non-nil, receives per-run observability events. The
	// default (nil) leaves the hot path unchanged; a configured sink
	// must be safe for concurrent use (Whirlpool-M emits from several
	// goroutines).
	Trace TraceSink
	// Plan, when non-nil, supplies a precompiled query plan from a
	// Planner: engines skip server-plan construction and per-predicate
	// statistics probes, the plan's scorer applies when Scorer is nil,
	// and its cost-based order is the static-routing default when Order
	// is nil. The engine evaluates the plan's canonicalized query —
	// answers are identical to evaluating the original, but Bindings
	// are indexed by the canonical query's node IDs. The plan must have
	// been compiled for the same query shape and Relax mode.
	Plan *QueryPlan
}

// Approximate returns the default options for approximate top-k matching
// with all relaxations enabled.
func Approximate(k int) Options { return Options{K: k, Relax: RelaxAll} }

// Exact returns the default options for exact top-k matching.
func Exact(k int) Options { return Options{K: k, Relax: RelaxNone} }

// engineConfig resolves opts against the defaults into a core.Config.
// ix is the whole corpus: without Options.Plan one statistics pass over
// it serves both the default scorer and the engines' routing numbers —
// handed on as a plan compiled on the spot, its Order left nil so the
// ascending-id default holds.
func engineConfig(ix index.Source, q *Query, opts Options) (core.Config, error) {
	if q == nil {
		return core.Config{}, fmt.Errorf("whirlpool: nil query")
	}
	k := opts.K
	if k == 0 {
		k = 10
	}
	norm := opts.Normalization
	if norm == score.Raw {
		norm = score.Sparse
	}
	scorer, plan := opts.Scorer, opts.Plan
	if plan == nil {
		stats := score.CollectStats(ix, nil, q)
		if scorer == nil {
			scorer = score.NewTFIDFFromStats(stats, norm)
		}
		var err error
		if plan, err = core.CompilePlan(stats, q, opts.Relax, scorer, ""); err != nil {
			return core.Config{}, err
		}
		plan.Order = nil
	}
	if scorer == nil {
		scorer = plan.Scorer
	}
	if scorer == nil {
		scorer = score.NewTFIDF(ix, q, norm)
	}
	routing := opts.Routing
	if routing == core.RoutingStatic && opts.Order == nil && opts.Algorithm != LockStep && opts.Algorithm != LockStepNoPrune {
		routing = core.RoutingMinAlive
	}
	return core.Config{
		K:         k,
		Relax:     opts.Relax,
		Algorithm: opts.Algorithm,
		Routing:   routing,
		Order:     opts.Order,
		Queue:     opts.Queue,
		Scorer:    scorer,
		Trace:     opts.Trace,
		Plan:      plan,
	}, nil
}

// planQuery substitutes the plan's canonicalized query for q when a
// plan is configured — the plan's node numbering is what its server
// plans and statistics are indexed by — after checking the plan was
// compiled for q's shape.
func planQuery(q *Query, opts Options) (*Query, error) {
	if opts.Plan == nil || q == nil {
		return q, nil
	}
	pq := opts.Plan.Query
	if q != pq && pattern.CanonicalKey(q) != pattern.CanonicalKey(pq) {
		return nil, fmt.Errorf("whirlpool: plan compiled for %s, not %s", pq, q)
	}
	return pq, nil
}

// NewEngine prepares a reusable engine for q under opts. With
// Options.Plan set, the engine evaluates the plan's canonicalized query
// (answer-equivalent; Bindings indexed by its node IDs).
func (db *Database) NewEngine(q *Query, opts Options) (*Engine, error) {
	q, err := planQuery(q, opts)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(db.ix, q, opts)
	if err != nil {
		return nil, err
	}
	e, err := core.New(db.ix, q, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: e, src: db.ix}, nil
}

// TopK evaluates q and returns the k best answers.
func (db *Database) TopK(q *Query, opts Options) (*Result, error) {
	return db.TopKContext(context.Background(), q, opts)
}

// TopKContext is TopK with cancellation: when ctx is cancelled the
// evaluation winds down promptly and ctx's error is returned.
func (db *Database) TopKContext(ctx context.Context, q *Query, opts Options) (*Result, error) {
	e, err := db.NewEngine(q, opts)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// CostBasedOrder chooses a static server order a priori from index
// statistics (fewest expected alive extensions first) — a conventional
// optimizer's pick, usable as Options.Order with RoutingStatic or the
// LockStep algorithms.
func (db *Database) CostBasedOrder(q *Query, r Relaxation) []int {
	return core.CostBasedOrder(db.ix, q, r)
}

// TopKString parses the query and evaluates it in one call.
func (db *Database) TopKString(xpath string, opts Options) (*Result, error) {
	q, err := ParseQuery(xpath)
	if err != nil {
		return nil, err
	}
	return db.TopK(q, opts)
}

// ShardedEngine is a prepared sharded evaluator: one engine whose runs,
// one per shard's range of the query's roots, share a global top-k set
// per evaluation. It mirrors Engine's Run / RunContext contract and is
// reusable across concurrent runs; like Engine it embeds the evaluator,
// whose answers are ordinals.
type ShardedEngine struct {
	*shard.Engines
	src index.Source
}

// Run evaluates the query over all shards and returns the merged result.
func (e *ShardedEngine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation.
func (e *ShardedEngine) RunContext(ctx context.Context) (*Result, error) {
	res, err := e.Engines.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return resolve(e.src, res), nil
}

// ShardedDatabase is a Database evaluated in P shards: each query's
// roots, in document order, are cut into P contiguous ranges of equal
// count, and one run of the query's engine per range prunes against a
// single shared global top-k set — a high-scoring answer found by one
// run immediately raises the threshold used to kill partial matches in
// all others. Every root is offered by exactly one run, and the shared
// threshold is always a lower bound on the true global k-th best score,
// so the merged answers match a single-engine evaluation's.
//
//	sdb, _ := db.Shard(8)
//	res, _ := sdb.TopK(q, whirlpool.Approximate(10))
type ShardedDatabase struct {
	db     *Database
	corpus *shard.Corpus
	reg    *obs.Registry
}

// Shard returns the database evaluated in p shards (p ≥ 1). Nothing is
// partitioned or copied up front; the returned ShardedDatabase is safe
// for concurrent queries.
func (db *Database) Shard(p int) (*ShardedDatabase, error) {
	corpus, err := shard.New(db.ix, p)
	if err != nil {
		return nil, err
	}
	return &ShardedDatabase{db: db, corpus: corpus}, nil
}

// ObserveInto routes per-run shard metrics (per-shard operation and
// prune counters, run-duration and merge-latency histograms, shard-skew
// gauge) from every engine subsequently built to reg.
func (sdb *ShardedDatabase) ObserveInto(reg *obs.Registry) { sdb.reg = reg }

// Document returns the underlying document as a node slab (see
// Database.Document).
func (sdb *ShardedDatabase) Document() *Document { return sdb.db.Document() }

// Size returns the number of nodes in the database.
func (sdb *ShardedDatabase) Size() int { return sdb.db.Size() }

// Shards returns the shard count.
func (sdb *ShardedDatabase) Shards() int { return sdb.corpus.Shards() }

// NewEngine prepares a reusable sharded engine for q under opts. The
// default scorer is built over the whole corpus — sharding never changes
// scores, only where the work runs.
func (sdb *ShardedDatabase) NewEngine(q *Query, opts Options) (*ShardedEngine, error) {
	q, err := planQuery(q, opts)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(sdb.db.ix, q, opts)
	if err != nil {
		return nil, err
	}
	engs, err := sdb.corpus.NewEngines(q, cfg)
	if err != nil {
		return nil, err
	}
	if sdb.reg != nil {
		engs.ObserveInto(sdb.reg)
	}
	return &ShardedEngine{Engines: engs, src: sdb.db.ix}, nil
}

// TopK evaluates q across all shards and returns the merged k best
// answers.
func (sdb *ShardedDatabase) TopK(q *Query, opts Options) (*Result, error) {
	return sdb.TopKContext(context.Background(), q, opts)
}

// TopKContext is TopK with cancellation; cancelling ctx winds down every
// shard promptly.
func (sdb *ShardedDatabase) TopKContext(ctx context.Context, q *Query, opts Options) (*Result, error) {
	e, err := sdb.NewEngine(q, opts)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// TopKString parses the query and evaluates it across all shards.
func (sdb *ShardedDatabase) TopKString(xpath string, opts Options) (*Result, error) {
	q, err := ParseQuery(xpath)
	if err != nil {
		return nil, err
	}
	return sdb.TopK(q, opts)
}

// AnswerScore computes the whole-answer tf*idf score of Definition 4.4
// for a candidate root node (the sum over component predicates of
// idf·tf), under the given normalization.
func (db *Database) AnswerScore(q *Query, norm Normalization, root *Node) float64 {
	s := score.NewTFIDF(db.ix, q, norm)
	return score.AnswerScore(db.ix, q, s, root.Ord)
}

// XMarkOptions sizes a generated XMark-equivalent document. Set exactly
// one of Items or Bytes.
type XMarkOptions struct {
	// Seed drives generation; equal seeds generate identical documents.
	Seed int64
	// Items is the number of auction items to generate.
	Items int
	// Bytes targets a serialized document size instead (the paper's
	// 1 MB / 10 MB / 50 MB axis).
	Bytes int
}

// GenerateXMark builds and indexes a deterministic XMark-equivalent
// document (see internal/xmark for the structural features it shares with
// the XMark benchmark generator the paper used).
func GenerateXMark(opts XMarkOptions) (*Database, error) {
	if (opts.Items == 0) == (opts.Bytes == 0) {
		return nil, fmt.Errorf("whirlpool: set exactly one of Items or Bytes")
	}
	var doc *Document
	var err error
	if opts.Items > 0 {
		doc, err = xmark.Generate(xmark.Options{Seed: opts.Seed, Items: opts.Items})
	} else {
		doc, _, err = xmark.GenerateBytes(opts.Seed, opts.Bytes)
	}
	if err != nil {
		return nil, err
	}
	return FromDocument(doc), nil
}
