package core

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
)

// refOrder is the reference pop order, written out apart from
// prioritized.before: priority descending, depth descending, then seq
// ascending.
func refOrder(items []*match) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if da, db := bits.OnesCount64(a.visited), bits.OnesCount64(b.visited); da != db {
			return da > db
		}
		return a.seq < b.seq
	})
}

// TestPQPopOrderProperty drives pq with seeded random push, settle and
// popBatch sequences and holds every pop to the reference order over the
// live items. Priorities and depths come from three-value sets, so most
// compares tie on both and seq decides. The held slot must serve pops,
// or the property says nothing about it.
func TestPQPopOrderProperty(t *testing.T) {
	// Under the current-score discipline a match's priority is its score.
	r := &run{Engine: &Engine{cfg: Config{Queue: QueueCurrentScore}}}
	prios := []float64{0.25, 0.5, 0.75}
	fromHeld := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q pq
		var live []*match
		var seq int64
		mk := func() *match {
			seq++
			d := 1 + rng.Intn(3)
			return &match{bindings: []int32{int32(seq)}, score: prios[rng.Intn(3)], visited: 1<<uint(d) - 1, seq: seq}
		}
		for op := 0; op < 300; op++ {
			switch x := rng.Intn(10); {
			case x == 0:
				m := mk()
				q.push(m, m.score)
				live = append(live, m)
			case x < 6:
				surv := make([]*match, rng.Intn(4))
				for i := range surv {
					surv[i] = mk()
				}
				q.settle(r, surv, 0)
				live = append(live, surv...)
			default:
				held := q.next.m
				got, _ := q.popBatch(nil, 1+rng.Intn(3))
				refOrder(live)
				want := live[:min(len(got), len(live))]
				if len(got) != len(want) || len(got) == 0 && len(live) > 0 {
					t.Fatalf("seed %d op %d: popped %d of %d live", seed, op, len(got), len(live))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: pop %d is seq %d, want seq %d", seed, op, i, got[i].seq, want[i].seq)
					}
				}
				if len(got) > 0 && held != nil && got[0] == held {
					fromHeld++
				}
				live = live[len(got):]
			}
			if q.len() != len(live) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, q.len(), len(live))
			}
		}
	}
	if fromHeld == 0 {
		t.Fatal("no pop was served from the held slot")
	}
}

// TestPQHeldAcrossRootPull holds the held slot to the root cursor: a
// held survivor above the cursor's bound pops with no pull, one below
// it stays held while a pop pulls a root past it, and every pop of the
// run is the best of what is queued and ahead of every unpulled root.
func TestPQHeldAcrossRootPull(t *testing.T) {
	ix, q := buildEnv(t, booksXML, "/book[./title]")
	cfg := Config{K: 10, Relax: relax.None, Algorithm: WhirlpoolS, Queue: QueueCurrentScore, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := e.open(context.Background(), nil, 0, 0, len(e.roots))
	r := &p.r
	qu := &p.q
	if qu.seed(r.seedRoots(true)) {
		t.Fatal("run done at seed")
	}
	// check pops one match and holds it to the queue and the cursor.
	check := func() *match {
		t.Helper()
		got, _ := qu.popBatch(nil, 1)
		if len(got) != 1 {
			t.Fatalf("popped %d matches", len(got))
		}
		x := item(got[0], r.priority(got[0], -1))
		for i := range qu.h {
			if qu.h[i].before(&x) {
				t.Fatalf("popped seq %d ahead of queued seq %d", x.seq, qu.h[i].seq)
			}
		}
		if qu.next.m != nil && qu.next.before(&x) {
			t.Fatalf("popped seq %d ahead of held seq %d", x.seq, qu.next.seq)
		}
		if qu.roots != nil && qu.roots.prioBound > x.priority {
			t.Fatalf("popped seq %d at %v behind the cursor's bound %v", x.seq, x.priority, qu.roots.prioBound)
		}
		return got[0]
	}
	root := check()
	bound := qu.roots.prioBound
	surv := func(scores ...float64) []*match {
		out := make([]*match, len(scores))
		for i, s := range scores {
			m := r.arena.get()
			m.bindings[0], m.visited, m.score, m.seq = root.bindings[0], 3, s, r.nextSeq()
			out[i] = m
		}
		return out
	}
	// A held survivor above the cursor's bound pops without a pull.
	hi := surv(2*bound, bound/2)
	qu.settle(r, hi, 1)
	made := r.stats.load(ctrRoots)
	if next := check(); next != hi[0] || r.stats.load(ctrRoots) != made {
		t.Fatalf("popped %v after pulling %d roots, want the held %v and no pull", next, r.stats.load(ctrRoots)-made, hi[0])
	}
	// One below it stays held while the pop pulls a root past it.
	lo := surv(bound / 4)
	qu.settle(r, lo, 1)
	if qu.next.m != lo[0] || qu.roots == nil {
		t.Fatalf("held %v with cursor %v: want the survivor held and roots to come", qu.next.m, qu.roots)
	}
	if next := check(); next.visited != 1 || r.stats.load(ctrRoots) == made {
		t.Fatalf("popped %v, want a root pulled past the held survivor", next)
	}
	if qu.next.m != lo[0] {
		t.Fatal("the pull dropped the held survivor")
	}
	for qu.len() > 0 || qu.roots != nil {
		check()
		qu.settle(r, nil, 1)
	}
}

// TestRootTableReset serves two engines of equal binding width but
// different root sets from one pooled state, each answer list held to
// the one a fresh state gives: a root-table slot that survived reset
// would resurrect the other query's entry for a shared root.
func TestRootTableReset(t *testing.T) {
	ix, qa, sa := xmarkEnv(t, 300, "//item[./description/parlist and ./mailbox/mail/text]")
	qb := pattern.MustParse("//item[./location = 'Germany' and ./mailbox/mail/text and ./payment]")
	if qb.Size() != qa.Size() {
		t.Fatalf("binding widths %d and %d differ: the runs would not share a state", qa.Size(), qb.Size())
	}
	sb := score.NewTFIDF(ix, qb, score.Sparse)
	ea, err := New(ix, qa, Config{K: 75, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: sa})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(ix, qb, Config{K: 75, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: sb})
	if err != nil {
		t.Fatal(err)
	}
	dropIdle := func() {
		idleStates.mu.Lock()
		idleStates.list = nil
		idleStates.mu.Unlock()
	}
	defer dropIdle()
	run := func(e *Engine) []Answer {
		t.Helper()
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Answers
	}
	dropIdle()
	wantA := run(ea)
	dropIdle()
	wantB := run(eb)
	dropIdle()
	run(ea)
	idleStates.mu.Lock()
	if len(idleStates.list) != 1 {
		t.Fatalf("%d idle states after one run, want 1", len(idleStates.list))
	}
	st := idleStates.list[0]
	idleStates.mu.Unlock()
	for i, step := range []struct {
		e    *Engine
		want []Answer
	}{{eb, wantB}, {ea, wantA}, {eb, wantB}} {
		got := run(step.e)
		if len(got) != len(step.want) {
			t.Fatalf("step %d: %d answers on the reused state, %d on a fresh one", i, len(got), len(step.want))
		}
		for j := range got {
			if got[j].Score != step.want[j].Score || !slices.Equal(got[j].Bindings, step.want[j].Bindings) {
				t.Fatalf("step %d answer %d: %v on the reused state, %v on a fresh one", i, j, got[j], step.want[j])
			}
		}
		idleStates.mu.Lock()
		reused := len(idleStates.list) == 1 && idleStates.list[0] == st
		idleStates.mu.Unlock()
		if !reused {
			t.Fatalf("step %d did not run on the pooled state", i)
		}
	}
}
