package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relax"
	"repro/internal/score"
)

// extend is extendInto with a freshly allocated target.
func (m *match) extend(id int, n int32, c, maxContrib float64, seq int64) *match {
	return m.extendInto(&match{bindings: make([]int32, len(m.bindings))}, id, n, c, maxContrib, seq)
}

func mkMatch(rootOrd int, score float64, seq int64) *match {
	return &match{
		bindings: []int32{int32(rootOrd)},
		visited:  1,
		score:    score,
		maxFinal: score,
		seq:      seq,
	}
}

// Scores compare exactly: synthetic scores are exact by construction.
func TestTopkSetBasics(t *testing.T) {
	tk := newTopkSet(2, 0, false)
	if _, ok := tk.threshold(); ok {
		t.Fatal("empty set should have no threshold")
	}
	tk.offer(mkMatch(1, 0.5, 1), 0)
	if _, ok := tk.threshold(); ok {
		t.Fatal("one of two entries should not yield a threshold")
	}
	tk.offer(mkMatch(2, 0.8, 2), 0)
	if v, ok := tk.threshold(); !ok || v != 0.5 {
		t.Fatalf("threshold = %v, %v", v, ok)
	}
	// Better score for an existing root raises it.
	tk.offer(mkMatch(1, 0.9, 3), 0)
	if v, _ := tk.threshold(); v != 0.8 {
		t.Fatalf("threshold after update = %v", v)
	}
	// A new root displacing the weakest.
	tk.offer(mkMatch(3, 1.0, 4), 0)
	if v, _ := tk.threshold(); v != 0.9 {
		t.Fatalf("threshold after displacement = %v", v)
	}
	ans := tk.answers()
	if len(ans) != 2 || ans[0].Score != 1.0 || ans[1].Score != 0.9 {
		t.Fatalf("answers = %v", ans)
	}
}

// Scores compare exactly: synthetic scores are exact by construction.
func TestTopkSetOnePerRoot(t *testing.T) {
	tk := newTopkSet(3, 0, false)
	tk.offer(mkMatch(7, 0.5, 1), 0)
	tk.offer(mkMatch(7, 0.7, 2), 0)
	tk.offer(mkMatch(7, 0.6, 3), 0) // worse than best, ignored
	ans := tk.answers()
	if len(ans) != 1 || ans[0].Score != 0.7 {
		t.Fatalf("answers = %v", ans)
	}
}

func TestTopkSetFloor(t *testing.T) {
	tk := newTopkSet(2, 0.9, true)
	if v, ok := tk.threshold(); !ok || v != 0.9 {
		t.Fatalf("seeded threshold = %v, %v", v, ok)
	}
	// Entries below the floor do not lower it.
	tk.offer(mkMatch(1, 0.2, 1), 0)
	tk.offer(mkMatch(2, 0.3, 2), 0)
	if v, _ := tk.threshold(); v != 0.9 {
		t.Fatalf("floored threshold = %v", v)
	}
	// A full set above the floor overrides it.
	tk.offer(mkMatch(3, 1.2, 3), 0)
	tk.offer(mkMatch(4, 1.1, 4), 0)
	if v, _ := tk.threshold(); v != 1.1 {
		t.Fatalf("threshold = %v", v)
	}
}

// Scores compare exactly: synthetic scores are exact by construction.
func TestTopkSetEvictedRootCanReturn(t *testing.T) {
	tk := newTopkSet(1, 0, false)
	tk.offer(mkMatch(1, 0.5, 1), 0)
	tk.offer(mkMatch(2, 0.8, 2), 0) // evicts root 1
	tk.offer(mkMatch(1, 0.9, 3), 0) // root 1 returns with a better score
	ans := tk.answers()
	if len(ans) != 1 || ans[0].Root != 1 || ans[0].Score != 0.9 {
		t.Fatalf("answers = %v", ans)
	}
}

func TestTopkSetDeterministicTieBreak(t *testing.T) {
	tk := newTopkSet(1, 0, false)
	tk.offer(mkMatch(5, 0.5, 1), 0)
	tk.offer(mkMatch(2, 0.5, 2), 0) // same score, smaller root ord wins
	ans := tk.answers()
	if ans[0].Root != 2 {
		t.Fatalf("tie break picked root %d", ans[0].Root)
	}
}

// mkBoundMatch is mkMatch with extra non-root bindings, for tie-break
// tests that need distinct binding vectors at equal scores.
func mkBoundMatch(root int32, score float64, others ...int32) *match {
	return &match{
		bindings: append([]int32{root}, others...),
		visited:  1,
		score:    score,
		maxFinal: score,
		seq:      1,
	}
}

func TestTopkSetEqualScoreKeepsDocOrderBindings(t *testing.T) {
	root, early, late := int32(1), int32(3), int32(9)
	// Regardless of arrival order, the kept representative for a root at
	// an equal score is the bindings vector earliest in document order.
	for _, first := range []int32{early, late} {
		second := late
		if first == late {
			second = early
		}
		tk := newTopkSet(1, 0, false)
		tk.offer(mkBoundMatch(root, 0.5, first), 0)
		tk.offer(mkBoundMatch(root, 0.5, second), 0)
		ans := tk.answers()
		if len(ans) != 1 || ans[0].Bindings[1] != early {
			t.Fatalf("first ord %d: kept binding ord %d, want ord 3", first, ans[0].Bindings[1])
		}
	}
	// -1 (relaxed-away) sorts after any bound node.
	tk := newTopkSet(1, 0, false)
	tk.offer(mkBoundMatch(root, 0.5, -1), 0)
	tk.offer(mkBoundMatch(root, 0.5, late), 0)
	if ans := tk.answers(); ans[0].Bindings[1] != late {
		t.Fatalf("kept %v, want bound node over -1", ans[0].Bindings[1])
	}
}

// TestTopkSetThresholdSource: the threshold's source is the shard whose
// entry is the k-th, whichever shard's offer moved it.
func TestTopkSetThresholdSource(t *testing.T) {
	tk := newTopkSet(2, 0, false)
	if src := tk.thresholdSrc(); src != -1 {
		t.Fatalf("empty set source = %d, want -1", src)
	}
	tk.offer(mkMatch(1, 0.5, 1), 3)
	tk.offer(mkMatch(2, 0.8, 2), 4) // fills the set: k-th is shard 3's 0.5
	if src := tk.thresholdSrc(); src != 3 {
		// The k-th entry's shard, not the offer that completed the set.
		t.Fatalf("source after fill = %d, want 3", src)
	}
	tk.offer(mkMatch(3, 1.0, 3), 5) // displaces 0.5; threshold rises to shard 4's 0.8
	if src := tk.thresholdSrc(); src != 4 {
		t.Fatalf("source after displacement = %d, want 4", src)
	}
	// An offer that does not move the threshold keeps the attribution.
	tk.offer(mkMatch(4, 0.1, 4), 6)
	if src := tk.thresholdSrc(); src != 4 {
		t.Fatalf("source after no-op offer = %d, want 4", src)
	}
}

func TestTopkSetFloorSourceStaysRemoteless(t *testing.T) {
	tk := newTopkSet(1, 2.0, true)
	tk.offer(mkMatch(1, 0.5, 1), 7)
	if v, _ := tk.threshold(); v != 2.0 {
		t.Fatalf("threshold = %v, want floor", v)
	}
	if src := tk.thresholdSrc(); src != -1 {
		t.Fatalf("floor-governed source = %d, want -1", src)
	}
}

// TestTopkSetThresholdMonotone hammers the lock-free threshold cache
// from concurrent offerers and checks it never decreases. The watcher
// spins on the threshold cache deliberately; the offerers' Wait bounds it.
func TestTopkSetThresholdMonotone(t *testing.T) {
	tk := newTopkSet(3, 0, false)
	stop := make(chan struct{})
	var bad atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok := tk.threshold(); ok {
				if v < last {
					bad.Store(true)
					return
				}
				last = v
			}
		}
	}()
	var offerers sync.WaitGroup
	for g := 0; g < 4; g++ {
		offerers.Add(1)
		go func(g int) {
			defer offerers.Done()
			for i := 0; i < 500; i++ {
				tk.offer(mkMatch(g*1000+i, float64(i%97)/97, int64(i)), int32(g))
			}
		}(g)
	}
	offerers.Wait()
	close(stop)
	wg.Wait()
	if bad.Load() {
		t.Fatal("threshold decreased")
	}
}

func TestSharedTopKAcrossRuns(t *testing.T) {
	// Two sequential runs share one set: the second run evaluates
	// against the threshold the first established, so its prunes are
	// attributed to the other shard id.
	ix, q := buildEnv(t, booksXML, "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	cfg := Config{K: 1, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s}
	eng, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSharedTopK(cfg.K, 0)
	st0 := runShared(t, eng, shared, 0)
	if st0.PrunedRemote != 0 {
		t.Fatalf("lone shard recorded %d remote prunes", st0.PrunedRemote)
	}
	st1 := runShared(t, eng, shared, 1)
	if st1.Pruned == 0 {
		t.Fatal("second run should prune against the inherited threshold")
	}
	if st1.PrunedRemote != st1.Pruned {
		t.Fatalf("second run: %d of %d prunes attributed remotely",
			st1.PrunedRemote, st1.Pruned)
	}
	if got := len(shared.Answers()); got != 1 {
		t.Fatalf("answers = %d, want 1", got)
	}
}

// TestDominancePruneIsLocal: a shard run's match that its own root's
// entry dominates counts in Pruned and never in PrunedRemote, even while
// another shard's entry holds the threshold; a match below that
// threshold counts as remote. Both with and without an offer first.
func TestDominancePruneIsLocal(t *testing.T) {
	for _, mode := range []relax.Relaxation{relax.None, relax.All} {
		tk := newTopkSet(2, 0, false)
		own := mkBoundMatch(3, 0.9, 10, -1)
		own.visited = 0b11
		tk.offer(own, 1)                         // shard 1's root 3
		tk.offer(mkBoundMatch(1, 0.5, 4, -1), 0) // fills the set: threshold 0.5, shard 0's
		if src := tk.thresholdSrc(); src != 0 {
			t.Fatalf("threshold source %d, want shard 0", src)
		}
		r := &run{Engine: &Engine{allVisited: 0b111, cfg: Config{Relax: mode}}, topk: tk, shardID: 1, sharded: true}
		tie := mkBoundMatch(3, 0.6, 12, -1) // later than the entry's 10, at its score
		tie.visited, tie.maxFinal = 0b11, 0.9
		if r.checkTopK(tie) {
			t.Fatalf("relax=%v: a match its root's entry dominates survived", mode)
		}
		if st := r.stats.snapshot(); st.Pruned != 1 || st.PrunedRemote != 0 {
			t.Fatalf("relax=%v: dominance prune counted pruned %d, remote %d; want 1, 0", mode, st.Pruned, st.PrunedRemote)
		}
		dead := mkBoundMatch(4, 0.1, 5, -1)
		dead.visited, dead.maxFinal = 0b11, 0.3
		if r.checkTopK(dead) {
			t.Fatalf("relax=%v: a match below the threshold survived", mode)
		}
		if st := r.stats.snapshot(); st.Pruned != 2 || st.PrunedRemote != 1 {
			t.Fatalf("relax=%v: after a threshold prune, pruned %d, remote %d; want 2, 1", mode, st.Pruned, st.PrunedRemote)
		}
	}
}

// runShared runs e to completion against shared on the calling
// goroutine, as a shard pool worker runs a shard it claimed.
func runShared(t *testing.T, e *Engine, shared *SharedTopK, shardID int) Stats {
	t.Helper()
	p, err := e.NewParallelRun(context.Background(), shared, shardID)
	if err != nil {
		t.Fatal(err)
	}
	p.Drive()
	st, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPQOrdering drains a three-element queue; pop's ok=false ends the
// loop.
func TestPQOrdering(t *testing.T) {
	var q pq
	q.push(mkMatch(1, 0.1, 3), 0.1)
	q.push(mkMatch(2, 0.9, 1), 0.9)
	q.push(mkMatch(3, 0.5, 2), 0.5)
	var got []int
	for {
		ms, _ := q.popBatch(nil, 1)
		if len(ms) == 0 {
			break
		}
		got = append(got, ms[0].rootOrd())
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("pop order = %v", got)
	}
	if q.len() != 0 {
		t.Fatal("len after drain")
	}
}

func TestPQTieBreakBySeq(t *testing.T) {
	var q pq
	q.push(mkMatch(1, 0.5, 9), 0.5)
	q.push(mkMatch(2, 0.5, 1), 0.5)
	ms, _ := q.popBatch(nil, 2)
	if ms[0].seq != 1 || ms[1].seq != 9 {
		t.Fatalf("tie should pop earliest seq first, got %d then %d", ms[0].seq, ms[1].seq)
	}
}

// Scores compare exactly: extendInto's score arithmetic is exact on these inputs.
func TestMatchExtend(t *testing.T) {
	m := mkMatch(1, 0.4, 1)
	m.bindings = append(m.bindings, -1, -1)
	m.maxFinal = 0.4 + 0.3 + 0.2
	ext := m.extend(1, 9, 0.25, 0.3, 2)
	if ext.score != 0.65 {
		t.Fatalf("score = %v", ext.score)
	}
	if diff := ext.maxFinal - (0.4 + 0.3 + 0.2 - 0.3 + 0.25); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("maxFinal = %v", ext.maxFinal)
	}
	if !ext.isVisited(1) || ext.isMissing(1) {
		t.Fatal("visited bits wrong")
	}
	if m.isVisited(1) {
		t.Fatal("extend mutated parent")
	}
	// Null extension.
	null := m.extend(2, -1, 0, 0.2, 3)
	if !null.isMissing(2) || null.score != 0.4 {
		t.Fatalf("null extension = %v", null)
	}
	if null.maxFinal != 0.4+0.3 {
		t.Fatalf("null maxFinal = %v", null.maxFinal)
	}
	// complete() over a 3-node query.
	if ext.complete(0b111) {
		t.Fatal("ext not complete")
	}
	both := ext.extend(2, -1, 0, 0.2, 4)
	if !both.complete(0b111) {
		t.Fatal("both should be complete")
	}
}

// String renders the match for debugging: bound ordinals, score and bound.
func (m *match) String() string {
	var b strings.Builder
	b.WriteString("match{")
	for i, n := range m.bindings {
		if i > 0 {
			b.WriteString(" ")
		}
		switch {
		case n >= 0:
			fmt.Fprintf(&b, "%d:%d", i, n)
		case m.isMissing(i):
			fmt.Fprintf(&b, "%d:⊥", i)
		default:
			fmt.Fprintf(&b, "%d:?", i)
		}
	}
	fmt.Fprintf(&b, " score=%.4f max=%.4f}", m.score, m.maxFinal)
	return b.String()
}

func TestMatchString(t *testing.T) {
	m := mkMatch(1, 0.4, 1)
	m.bindings = append(m.bindings, -1, -1)
	m.visited |= 1 << 2
	m.missing |= 1 << 2
	s := m.String()
	for _, want := range []string{"0:", "1:?", "2:⊥", "score=0.4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String = %q missing %q", s, want)
		}
	}
}
