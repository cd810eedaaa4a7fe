package shard_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// valuedDoc builds a random forest in which the query root tag "a" nests
// at every level — so an 8-way split leaves some "a" nodes on the spine —
// and half the nodes carry one of two values.
func valuedDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "a", "b", "c", "d"}
	values := []string{"", "", "x", "y"}
	doc := xmltree.NewDocument()
	for i, roots := 0, 1+r.Intn(3); i < roots; i++ {
		var grow func(n *xmltree.Node, depth int)
		grow = func(n *xmltree.Node, depth int) {
			if depth > 5 {
				return
			}
			for j, kids := 0, r.Intn(4); j < kids; j++ {
				grow(doc.AddChild(n, tags[r.Intn(len(tags))], values[r.Intn(len(values))]), depth+1)
			}
		}
		grow(doc.AddRoot("a"), 1)
	}
	doc.Renumber()
	return doc
}

// valuedQuery builds a random tree pattern rooted at "a" with at least
// one valued non-root node; inner nodes and the root may be valued too.
func valuedQuery(r *rand.Rand) *pattern.Query {
	tags := []string{"a", "b", "c", "d"}
	axes := []dewey.Axis{dewey.Child, dewey.Descendant}
	ops := []string{"", "", "", "!="}
	q := pattern.New("a", axes[r.Intn(2)])
	if r.Intn(5) == 0 {
		q.Root().Value = "x"
	}
	for i, nodes := 0, 1+r.Intn(4); i < nodes; i++ {
		id := q.Add(r.Intn(q.Size()), tags[r.Intn(len(tags))], axes[r.Intn(2)])
		if i == 0 || r.Intn(3) == 0 {
			q.Nodes[id].Value, q.Nodes[id].ValueOp = []string{"x", "y"}[r.Intn(2)], ops[r.Intn(len(ops))]
		}
	}
	return q
}

// rootTally is a Scorer counting how often each root is materialised;
// the engines of one sharded run share it.
type rootTally struct {
	score.Scorer
	mu    sync.Mutex
	times map[int]int
}

func (s *rootTally) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		s.mu.Lock()
		s.times[int(ord)]++
		s.mu.Unlock()
	}
	return s.Scorer.Contribution(id, v, ord)
}

// ordAnswer is an answer by ordinals, comparable across sources.
type ordAnswer struct {
	score float64
	root  int
	binds string
}

func ordAnswers(as []core.Answer) []ordAnswer {
	out := make([]ordAnswer, len(as))
	for i, a := range as {
		out[i] = ordAnswer{a.Score, int(a.Root), fmt.Sprint(a.Bindings)}
	}
	return out
}

// sameScores requires equal score vectors; with identical set it also
// requires the same roots and bindings in every position, otherwise in
// every position scoring strictly above the k-th score (entries tying
// it are prunable, so which tying root fills the last slots may depend
// on arrival order until answers are totally ordered — ROADMAP item 1).
func sameScores(t *testing.T, label string, want, got []ordAnswer, identical bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if math.Abs(got[i].score-want[i].score) > 1e-9 {
			t.Fatalf("%s: answer %d scores %v, want %v\n got %v\nwant %v", label, i, got[i].score, want[i].score, got, want)
		}
		if (identical || want[i].score > want[len(want)-1].score+1e-9) && (got[i].root != want[i].root || got[i].binds != want[i].binds) {
			t.Fatalf("%s: answer %d is root %d %s, want root %d %s", label, i, got[i].root, got[i].binds, want[i].root, want[i].binds)
		}
	}
}

// TestRootStreamEquivalence is the posting path's safety property. On
// random documents and random valued patterns, for every relaxation
// family, queue discipline, routing strategy and k, an engine that
// streams its roots from a posting list answers like one that scans
// every root candidate and like the naive evaluator — over the
// in-memory Index, the snapshot reader, the partitioned Corpus as one
// source, and the sharded executors over member views of the built and
// of the snapshot backing, each with a spine view whose engine must
// scan.
func TestRootStreamEquivalence(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	modes := []relax.Relaxation{relax.None, relax.LeafDeletion, relax.All}
	queues := []core.Queue{core.QueueMaxFinal, core.QueueFIFO, core.QueueCurrentScore, core.QueueMaxNext}
	routings := []core.Routing{core.RoutingStatic, core.RoutingMaxScore, core.RoutingMinScore, core.RoutingMinAlive}
	algorithms := []core.Algorithm{core.WhirlpoolS, core.WhirlpoolS, core.WhirlpoolM, core.LockStep}
	streamed, partsStreamed, spineRoots, leafDeleted := 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(4200 + trial)))
		doc := valuedDoc(r)
		q := valuedQuery(r)
		ix := index.Build(doc)
		var buf bytes.Buffer
		if err := store.WriteSnapshot(&buf, &store.Snapshot{Cols: doc.Columns()}); err != nil {
			t.Fatal(err)
		}
		snap, err := store.ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := shard.Partition(ix, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range corpus.Spine() {
			if doc.Nodes[s].Tag == "a" {
				spineRoots++
			}
		}
		overSnapshot, err := shard.Partition(snap, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := score.NewTFIDF(ix, q, score.Sparse)

		for _, mode := range modes {
			cfg := core.Config{
				K: 1 + r.Intn(6), Relax: mode, Scorer: s,
				Algorithm: algorithms[r.Intn(len(algorithms))],
				Queue:     queues[r.Intn(len(queues))],
				Routing:   routings[r.Intn(len(routings))],
			}
			label := fmt.Sprintf("trial %d %s relax=%v k=%d %v/%v/%v", trial, q, mode, cfg.K, cfg.Algorithm, cfg.Queue, cfg.Routing)
			// One goroutine and one engine order equal scores by root
			// ordinal; Whirlpool-M and the pool break boundary ties by arrival.
			serial := cfg.Algorithm != core.WhirlpoolM

			// The reference: the same engine made to scan (a source whose
			// postings lie elsewhere, as the spine's do, always scans).
			scanEng, err := core.NewMember(ix, q, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if scanEng.RootVia() != "scan" {
				t.Fatalf("%s: reference engine streams via %s", label, scanEng.RootVia())
			}
			scanRes, err := scanEng.Run()
			if err != nil {
				t.Fatal(err)
			}
			scan := ordAnswers(scanRes.Answers)
			want := naive.TopK(ix, q, mode, s, cfg.K)
			if len(want) != len(scan) {
				t.Fatalf("%s: scan path found %d answers, naive %d", label, len(scan), len(want))
			}
			for i, a := range want {
				if math.Abs(scan[i].score-a.Score) > 1e-9 {
					t.Fatalf("%s: scan path answer %d scores %v, naive %v", label, i, scan[i].score, a.Score)
				}
			}

			for _, src := range []struct {
				name string
				ix   index.Source
			}{{"Index", ix}, {"SnapshotReader", snap}, {"Corpus", corpus}} {
				eng, err := core.New(src.ix, q, cfg)
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
				// Exact mode streams the scan's roots in the scan's order
				// minus those that cannot answer: plain equality.
				sameScores(t, label+" "+src.name+" via "+eng.RootVia(), scan, ordAnswers(res.Answers), mode == relax.None && serial)
			}
			for _, sharded := range []struct {
				name string
				c    *shard.Corpus
			}{{"built", corpus}, {"snapshot", overSnapshot}} {
				tally := &rootTally{Scorer: s, times: make(map[int]int)}
				shardCfg := cfg
				shardCfg.Scorer = tally
				engs, err := sharded.c.NewEngines(q, shardCfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := engs.Run()
				if err != nil {
					t.Fatal(err)
				}
				sameScores(t, label+" sharded over "+sharded.name, scan, ordAnswers(res.Answers), false)
				// Ownership: a part's postings climb into spine roots, which
				// only the spine engine may materialise.
				for ord, n := range tally.times {
					if n > 1 {
						t.Fatalf("%s sharded over %s: root %d materialised %d times", label, sharded.name, ord, n)
					}
				}
				for _, st := range engs.ShardTotals() {
					if st.Shard == len(sharded.c.Parts()) && st.RootVia != "scan" {
						t.Fatalf("%s: the spine engine streams via %s", label, st.RootVia)
					}
					if st.RootVia != "scan" && st.Totals.Roots > 0 {
						partsStreamed++
					}
				}
			}
		}
	}
	// Guards against a vacuous pass.
	if streamed < trials || partsStreamed < trials || leafDeleted == 0 || spineRoots == 0 {
		t.Fatalf("%d runs and %d part engines streamed from postings (%d under leaf deletion), %d root-tag spine nodes: the property was not exercised",
			streamed, partsStreamed, leafDeleted, spineRoots)
	}
}
