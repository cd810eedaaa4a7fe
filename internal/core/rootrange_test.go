package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/store"
	"repro/internal/xmark"
)

// scanning returns an engine like New's that scans its root candidates
// whatever postings it could stream from.
func scanning(t *testing.T, ix index.Source, q *pattern.Query, cfg Config) *Engine {
	t.Helper()
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.rootVia, e.post = 0, nil
	return e
}

// cursorRun is what one run's root cursor produced, drained without
// evaluating anything: each segment's roots, and the counters it flushed.
type cursorRun struct {
	segs              [2][]int32
	roots, comparison int64
}

// drainCursor drains the root cursor of shard s of p (p = 0: the whole
// run) segment by segment.
func drainCursor(t *testing.T, e *Engine, s, p int) cursorRun {
	t.Helper()
	shared := NewSharedTopK(e.cfg.K, 0)
	pr, err := e.NewParallelRun(context.Background(), shared, 0)
	if p > 0 {
		pr, err = e.NewShardRun(context.Background(), shared, s, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	var out cursorRun
	c := pr.r.seedRoots()
	for seg := range out.segs {
		for m := c.next(); m != nil; m = c.next() {
			out.segs[seg] = append(out.segs[seg], m.bindings[0])
			pr.r.release(m)
		}
		if !c.lower() {
			break
		}
	}
	c.flush()
	st := pr.r.stats.snapshot()
	out.roots, out.comparison = st.Roots, st.JoinComparisons
	return out
}

// rootRangeStats counts what checkRootRanges exercised, so the tests
// can refuse a vacuous pass.
type rootRangeStats struct {
	streamed, second, nestedCuts int
}

// checkRootRanges holds the shard cursors to the whole one: for every
// shard count, the shards' roots concatenated in shard order are the
// whole cursor's, segment by segment, and their Roots and
// JoinComparisons sum to its.
func checkRootRanges(t *testing.T, e *Engine, label string, tally *rootRangeStats) {
	t.Helper()
	whole := drainCursor(t, e, 0, 0)
	if e.rootVia != 0 {
		tally.streamed++
	}
	if len(whole.segs[1]) > 0 {
		tally.second++
	}
	for _, p := range []int{1, 2, 3, 8, len(e.roots) + 3} {
		var got cursorRun
		for s := 0; s < p; s++ {
			sh := drainCursor(t, e, s, p)
			for seg := range sh.segs {
				got.segs[seg] = append(got.segs[seg], sh.segs[seg]...)
			}
			got.roots += sh.roots
			got.comparison += sh.comparison
			if lo := s * len(e.roots) / p; lo > 0 && lo < len(e.roots) && e.doc.Contains(int32(e.roots[lo-1]), int32(e.roots[lo])) {
				tally.nestedCuts++
			}
		}
		for seg := range got.segs {
			if !slices.Equal(got.segs[seg], whole.segs[seg]) {
				t.Fatalf("%s via %s, %d shards: segment %d streams %v, whole %v", label, e.RootVia(), p, seg, got.segs[seg], whole.segs[seg])
			}
		}
		if got.roots != whole.roots || got.comparison != whole.comparison {
			t.Fatalf("%s via %s, %d shards: %d roots and %d comparisons, whole %d and %d",
				label, e.RootVia(), p, got.roots, got.comparison, whole.roots, whole.comparison)
		}
	}
}

// TestRootStreamEquivalence is the root cursor's range property. A
// shard run covers one contiguous slice of the engine's roots: the scan
// walks it, the posting climb starts just before its first root and
// stops at the next slice's, and leaf deletion's second segment walks
// the slice again. On random documents whose root tag nests at every
// level, and on XMark for two valued queries, over 1, 2, 3, 8 and more
// shards than roots, the shard cursors together must stream exactly
// the whole cursor's roots, on the posting path and on the scan path.
func TestRootStreamEquivalence(t *testing.T) {
	modes := []relax.Relaxation{relax.None, relax.EdgeGeneralization, relax.LeafDeletion, relax.All}
	var tally rootRangeStats
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(4200 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, mode := range modes {
			cfg := Config{K: 3, Relax: mode, Algorithm: LockStepNoPrune, Scorer: s}
			label := fmt.Sprintf("trial %d %s relax=%v", trial, q, mode)
			eng, err := New(ix, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRootRanges(t, eng, label, &tally)
			checkRootRanges(t, scanning(t, ix, q, cfg), label, &tally)
		}
	}
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	for _, xpath := range []string{
		"//item[./location = 'United States' and ./quantity = '1']",
		"//mail[./from and .//keyword = 'officer']",
	} {
		q := pattern.MustParse(xpath)
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, mode := range modes {
			cfg := Config{K: 3, Relax: mode, Algorithm: LockStepNoPrune, Scorer: s}
			eng, err := New(ix, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if eng.RootVia() == "scan" {
				t.Fatalf("%s relax=%v scans", xpath, mode)
			}
			checkRootRanges(t, eng, fmt.Sprintf("%s relax=%v", xpath, mode), &tally)
			checkRootRanges(t, scanning(t, ix, q, cfg), fmt.Sprintf("%s relax=%v", xpath, mode), &tally)
		}
	}
	// Guards against a vacuous pass.
	if tally.streamed < trials || tally.second < trials/4 || tally.nestedCuts == 0 {
		t.Fatalf("%d cursors streamed from postings, %d had a second segment, %d cuts fell inside a root: the property was not exercised",
			tally.streamed, tally.second, tally.nestedCuts)
	}
}

// rootTally is a Scorer counting how often each root is materialised;
// the shard runs of one evaluation share it.
type rootTally struct {
	score.Scorer
	mu    sync.Mutex
	times map[int32]int
}

func (s *rootTally) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		s.mu.Lock()
		s.times[ord]++
		s.mu.Unlock()
	}
	return s.Scorer.Contribution(id, v, ord)
}

// sameAs requires got to repeat want's roots, bindings and scores.
func sameAs(t *testing.T, label string, want, got []Answer) {
	t.Helper()
	if !sameAnswers(got, want) {
		t.Fatalf("%s: answers %v\nwant %v", label, got, want)
	}
}

// TestRootStreamAnswers is the posting path's safety property. On
// random documents and random valued patterns, for every relaxation
// family, queue discipline, routing strategy and k, an engine that
// streams its roots from a posting list answers like one that scans
// every root candidate and like the naive evaluator — over the
// in-memory Index and the snapshot reader, whole and in 2–8 shard runs
// sharing one top-k set, where every root must be materialised once.
func TestRootStreamAnswers(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	modes := []relax.Relaxation{relax.None, relax.LeafDeletion, relax.All}
	queues := []Queue{QueueMaxFinal, QueueFIFO, QueueCurrentScore, QueueMaxNext}
	routings := []Routing{RoutingStatic, RoutingMaxScore, RoutingMinScore, RoutingMinAlive}
	algorithms := []Algorithm{WhirlpoolS, WhirlpoolS, WhirlpoolM, LockStep}
	streamed, leafDeleted := 0, 0
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(4200 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		var buf bytes.Buffer
		if err := store.WriteSnapshot(&buf, &store.Snapshot{Cols: doc.Columns()}); err != nil {
			t.Fatal(err)
		}
		snap, err := store.ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, mode := range modes {
			cfg := Config{
				K: 1 + r.Intn(6), Relax: mode, Scorer: s,
				Algorithm: algorithms[r.Intn(len(algorithms))],
				Queue:     queues[r.Intn(len(queues))],
				Routing:   routings[r.Intn(len(routings))],
			}
			p := 2 + r.Intn(7)
			label := fmt.Sprintf("trial %d %s relax=%v k=%d %v/%v/%v", trial, q, mode, cfg.K, cfg.Algorithm, cfg.Queue, cfg.Routing)

			scanRes, err := scanning(t, ix, q, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := agreeWithNaive(scanRes.Answers, naiveRanking(ix, q, mode, s), cfg.K); err != nil {
				t.Fatalf("%s: scan path: %v", label, err)
			}
			scan := scanRes.Answers

			for _, src := range []struct {
				name string
				ix   index.Source
			}{{"Index", ix}, {"SnapshotReader", snap}} {
				eng, err := New(src.ix, q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if eng.RootVia() != "scan" {
					streamed++
					if mode.Has(relax.LeafDeletion) && res.Stats.Roots > 0 {
						leafDeleted++
					}
				}
				sameAs(t, label+" "+src.name+" via "+eng.RootVia(), scan, res.Answers)

				// The same engine in p shard runs, one after another.
				tally := &rootTally{Scorer: s, times: make(map[int32]int)}
				shardCfg := cfg
				shardCfg.Scorer = tally
				eng, err = New(src.ix, q, shardCfg)
				if err != nil {
					t.Fatal(err)
				}
				shards := func(order func(i int) int) []Answer {
					shared := NewSharedTopK(cfg.K, 0)
					for i := 0; i < p; i++ {
						pr, err := eng.NewShardRun(context.Background(), shared, order(i), p)
						if err != nil {
							t.Fatal(err)
						}
						pr.Drive()
						if _, err := pr.Finish(); err != nil {
							t.Fatal(err)
						}
					}
					return shared.Answers()
				}
				fwd := shards(func(i int) int { return i })
				sameAs(t, fmt.Sprintf("%s %s in %d shards", label, src.name, p), scan, fwd)
				for ord, n := range tally.times {
					if n > 1 {
						t.Fatalf("%s %s in %d shards: root %d materialised %d times", label, src.name, p, ord, n)
					}
				}
				// A shared set answers the total order, ties included,
				// whichever shard reaches the boundary first.
				rev := shards(func(i int) int { return p - 1 - i })
				sameAs(t, fmt.Sprintf("%s %s in %d shards, last first", label, src.name, p), fwd, rev)
				if tot := eng.Totals(); tot.Runs != 0 {
					t.Fatalf("%s: shard runs recorded %d runs in the engine's totals", label, tot.Runs)
				}
			}
		}
	}
	// Guards against a vacuous pass.
	if streamed < trials || leafDeleted == 0 {
		t.Fatalf("%d runs streamed from postings (%d under leaf deletion): the property was not exercised", streamed, leafDeleted)
	}
}
