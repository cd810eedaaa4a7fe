package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// RunInfo describes one engine evaluation as it starts.
type RunInfo struct {
	Algorithm  string `json:"algorithm"`
	Routing    string `json:"routing"`
	Queue      string `json:"queue"`
	K          int    `json:"k"`
	QueryNodes int    `json:"query_nodes"`
	// RootVia is the root server's access path: "scan", or
	// "postings:<tag>" when roots stream from a valued node's postings.
	RootVia string `json:"root_via"`
}

// RunSummary reports the evaluation's final instrumentation — the
// paper's Section 6.2.3 measures (server operations, partial matches
// created, pruned) plus the answer count and wall clock.
type RunSummary struct {
	ServerOps       int64 `json:"server_ops"`
	JoinComparisons int64 `json:"join_comparisons"`
	MatchesCreated  int64 `json:"matches_created"`
	// Roots is how many of those the root server's stream produced.
	Roots  int64 `json:"roots"`
	Pruned int64 `json:"pruned"`
	// PrunedRemote is the subset of Pruned discarded below a threshold
	// owned by another shard of a sharded evaluation (0 standalone).
	PrunedRemote int64 `json:"pruned_remote,omitempty"`
	Answers      int   `json:"answers"`
	DurationUS   int64 `json:"duration_us"`
	// Aborted is set when the run's context was cancelled and the
	// partial result discarded.
	Aborted bool `json:"aborted,omitempty"`
}

// Lifecycle classifies a match-lifecycle trace event.
type Lifecycle uint8

const (
	// MatchesSpawned: n partial matches were created (root server batch
	// or server-operation extensions).
	MatchesSpawned Lifecycle = iota
	// MatchesPruned: n partial matches were discarded against
	// currentTopK.
	MatchesPruned
	// MatchesCompleted: n matches finished every server.
	MatchesCompleted
)

// String names the lifecycle kind for traces and logs.
func (l Lifecycle) String() string {
	switch l {
	case MatchesSpawned:
		return "created"
	case MatchesPruned:
		return "pruned"
	case MatchesCompleted:
		return "completed"
	default:
		return "lifecycle(?)"
	}
}

// TraceSink receives per-run engine events. The engine nil-checks its
// sink on every emission, so the default (no sink) adds one predictable
// branch and no allocation to the hot path; when a sink is configured
// the engine may invoke it from multiple goroutines concurrently
// (Whirlpool-M), so implementations must be safe for concurrent use.
//
// Router events use server = -1 for the router queue and the query-node
// ID for server queues.
type TraceSink interface {
	// RunStart opens a run.
	RunStart(info RunInfo)
	// RouteDecision reports that the router sent match matchSeq to
	// server next.
	RouteDecision(matchSeq int64, next int)
	// Threshold reports a new currentTopK pruning threshold. Values are
	// non-decreasing within a single-threaded run; under Whirlpool-M
	// samples are best-effort ordered.
	Threshold(value float64)
	// QueueDepth samples the depth of one queue (server = -1 for the
	// router queue) at a routing or phase boundary.
	QueueDepth(server, depth int)
	// MatchLifecycle reports n matches created / pruned / completed.
	MatchLifecycle(kind Lifecycle, n int)
	// RunEnd closes a run with its final counters.
	RunEnd(sum RunSummary)
}

// ShardSink is an optional extension of TraceSink for sharded
// evaluations: sinks that implement it additionally receive one
// per-shard summary per shard run, before the merged run's RunEnd.
type ShardSink interface {
	// ShardRun reports the final counters of one shard's engine run
	// within a sharded evaluation.
	ShardRun(shard int, sum RunSummary)
}

// Event is one recorded trace event, shaped for JSONL dumps: Kind
// selects which of the remaining fields are meaningful.
type Event struct {
	// I is the sink-assigned sequence number (arrival order).
	I int64 `json:"i"`
	// Kind is one of run_start, route, threshold, queue_depth, match,
	// shard_run, run_end.
	Kind     string      `json:"event"`
	Run      *RunInfo    `json:"run,omitempty"`
	Summary  *RunSummary `json:"summary,omitempty"`
	MatchSeq int64       `json:"match_seq,omitempty"`
	Server   int         `json:"server,omitempty"`
	Depth    int         `json:"depth,omitempty"`
	Value    float64     `json:"value,omitempty"`
	Life     string      `json:"kind,omitempty"`
	N        int         `json:"n,omitempty"`
	// Shard is the shard id of a shard_run event.
	Shard int `json:"shard,omitempty"`
}

// Collector is the in-memory TraceSink: tests inspect its events, and
// whirlbench -trace writes them out as JSONL (WriteJSONL). A mutex
// serializes recording, so it is safe for Whirlpool-M's concurrent
// emitters. The zero value is ready to use.
type Collector struct {
	mu     sync.Mutex
	seq    int64
	events []Event
}

func (c *Collector) record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	e.I = c.seq
	c.events = append(c.events, e)
}

// RunStart implements TraceSink.
func (c *Collector) RunStart(info RunInfo) { c.record(Event{Kind: "run_start", Run: &info}) }

// RouteDecision implements TraceSink.
func (c *Collector) RouteDecision(matchSeq int64, next int) {
	c.record(Event{Kind: "route", MatchSeq: matchSeq, Server: next})
}

// Threshold implements TraceSink.
func (c *Collector) Threshold(value float64) { c.record(Event{Kind: "threshold", Value: value}) }

// QueueDepth implements TraceSink.
func (c *Collector) QueueDepth(server, depth int) {
	c.record(Event{Kind: "queue_depth", Server: server, Depth: depth})
}

// MatchLifecycle implements TraceSink.
func (c *Collector) MatchLifecycle(kind Lifecycle, n int) {
	c.record(Event{Kind: "match", Life: kind.String(), N: n})
}

// RunEnd implements TraceSink.
func (c *Collector) RunEnd(sum RunSummary) { c.record(Event{Kind: "run_end", Summary: &sum}) }

// ShardRun implements ShardSink.
func (c *Collector) ShardRun(shard int, sum RunSummary) {
	c.record(Event{Kind: "shard_run", Shard: shard, Summary: &sum})
}

// Events returns a copy of everything recorded so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// WriteJSONL writes every event recorded so far to w, one JSON object
// per line, in recording order.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range c.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// CountKind returns how many events of the given Kind were recorded.
func (c *Collector) CountKind(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// LifeTotal sums the n of every match-lifecycle event of the given kind.
func (c *Collector) LifeTotal(kind Lifecycle) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	name := kind.String()
	for _, e := range c.events {
		if e.Kind == "match" && e.Life == name {
			total += int64(e.N)
		}
	}
	return total
}
