package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/relax"
	"repro/internal/score"
)

// traceQuery has enough servers and candidates that every event kind
// fires: routing decisions, threshold updates, pruning, completion.
const traceQuery = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"

// Scores compare exactly: threshold events must be non-decreasing under exact comparison.
func TestTraceEventsWhirlpoolS(t *testing.T) {
	ix, q := buildEnv(t, booksXML, traceQuery)
	s := score.NewTFIDF(ix, q, score.Sparse)
	sink := &obs.Collector{}
	res := runWith(t, ix, q, Config{
		K: 2, Relax: relax.All, Algorithm: WhirlpoolS,
		Routing: RoutingMinAlive, Scorer: s, Trace: sink,
	})

	if got := sink.CountKind("run_start"); got != 1 {
		t.Fatalf("run_start events = %d", got)
	}
	if got := sink.CountKind("run_end"); got != 1 {
		t.Fatalf("run_end events = %d", got)
	}
	events := sink.Events()
	first, last := events[0], events[len(events)-1]
	if first.Kind != "run_start" || first.Run == nil {
		t.Fatalf("first event = %+v", first)
	}
	if first.Run.Algorithm != "Whirlpool-S" || first.Run.Routing != "min_alive_partial_matches" || first.Run.QueryNodes != q.Size() {
		t.Fatalf("run info = %+v", first.Run)
	}
	if last.Kind != "run_end" || last.Summary == nil || last.Summary.Aborted {
		t.Fatalf("last event = %+v", last)
	}

	// The trace's lifecycle totals must agree with the run's Stats.
	if got := sink.LifeTotal(obs.MatchesSpawned); got != res.Stats.MatchesCreated {
		t.Errorf("created trace total = %d, stats = %d", got, res.Stats.MatchesCreated)
	}
	if got := sink.LifeTotal(obs.MatchesPruned); got != res.Stats.Pruned {
		t.Errorf("pruned trace total = %d, stats = %d", got, res.Stats.Pruned)
	}
	if last.Summary.ServerOps != res.Stats.ServerOps || last.Summary.Answers != len(res.Answers) {
		t.Errorf("summary = %+v, stats = %+v", last.Summary, res.Stats)
	}

	// Routing decisions name real non-root servers, and the threshold
	// trajectory is strictly increasing (Whirlpool-S is single-threaded).
	routes := 0
	lastThreshold := -1.0
	for _, e := range events {
		switch e.Kind {
		case "route":
			routes++
			if e.Server < 1 || e.Server >= q.Size() {
				t.Fatalf("route to bogus server: %+v", e)
			}
		case "threshold":
			if e.Value <= lastThreshold {
				t.Fatalf("threshold trajectory not increasing: %v after %v", e.Value, lastThreshold)
			}
			lastThreshold = e.Value
		case "queue_depth":
			if e.Server != -1 {
				t.Fatalf("Whirlpool-S samples the router queue only: %+v", e)
			}
		}
	}
	if routes == 0 {
		t.Fatal("no routing decisions traced")
	}
	if lastThreshold < 0 {
		t.Fatal("no threshold trajectory traced")
	}
}

func TestTraceEventsWhirlpoolM(t *testing.T) {
	ix, q := buildEnv(t, booksXML, traceQuery)
	s := score.NewTFIDF(ix, q, score.Sparse)
	sink := &obs.Collector{}
	res := runWith(t, ix, q, Config{
		K: 2, Relax: relax.All, Algorithm: WhirlpoolM,
		Routing: RoutingMinAlive, Scorer: s, Trace: sink,
	})
	if got := sink.LifeTotal(obs.MatchesSpawned); got != res.Stats.MatchesCreated {
		t.Errorf("created trace total = %d, stats = %d", got, res.Stats.MatchesCreated)
	}
	if got := sink.LifeTotal(obs.MatchesPruned); got != res.Stats.Pruned {
		t.Errorf("pruned trace total = %d, stats = %d", got, res.Stats.Pruned)
	}
	// Per-server queue depth samples name real servers.
	depths := 0
	for _, e := range sink.Events() {
		if e.Kind == "queue_depth" {
			depths++
			if e.Server < 1 || e.Server >= q.Size() {
				t.Fatalf("depth sample for bogus server: %+v", e)
			}
		}
	}
	if depths == 0 {
		t.Fatal("no queue depth samples traced")
	}
}

func TestTraceEventsLockStep(t *testing.T) {
	ix, q := buildEnv(t, booksXML, traceQuery)
	s := score.NewTFIDF(ix, q, score.Sparse)
	sink := &obs.Collector{}
	runWith(t, ix, q, Config{
		K: 2, Relax: relax.All, Algorithm: LockStep, Scorer: s, Trace: sink,
	})
	// One depth sample per phase (= per non-root server).
	if got := sink.CountKind("queue_depth"); got != q.Size()-1 {
		t.Fatalf("phase depth samples = %d, want %d", got, q.Size()-1)
	}
	// LockStep routes statically: no router decisions.
	if got := sink.CountKind("route"); got != 0 {
		t.Fatalf("route events = %d, want 0", got)
	}
}

func TestEngineTotalsAccumulate(t *testing.T) {
	ix, q := buildEnv(t, booksXML, traceQuery)
	s := score.NewTFIDF(ix, q, score.Sparse)
	e, err := New(ix, q, Config{K: 2, Relax: relax.All, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	var wantOps, wantCreated int64
	for i := 0; i < 3; i++ {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantOps += res.Stats.ServerOps
		wantCreated += res.Stats.MatchesCreated
	}
	tot := e.Totals()
	if tot.Runs != 3 || tot.Aborted != 0 {
		t.Fatalf("totals runs = %+v", tot)
	}
	if tot.ServerOps != wantOps || tot.MatchesCreated != wantCreated {
		t.Fatalf("totals = %+v, want ops %d created %d", tot, wantOps, wantCreated)
	}
	if tot.Duration <= 0 {
		t.Fatalf("totals duration = %v", tot.Duration)
	}
}

func TestNoTraceNoEvents(t *testing.T) {
	// The default configuration must run identically with no sink — the
	// other tests cover behavior; this pins the nil-safety of every
	// emission site across all four algorithms.
	ix, q := buildEnv(t, booksXML, traceQuery)
	s := score.NewTFIDF(ix, q, score.Sparse)
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		res := runWith(t, ix, q, Config{K: 2, Relax: relax.All, Algorithm: alg, Routing: RoutingMinAlive, Scorer: s})
		if len(res.Answers) == 0 {
			t.Fatalf("%v: no answers", alg)
		}
	}
}
