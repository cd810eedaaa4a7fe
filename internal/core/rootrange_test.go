package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
)

// scanning returns an engine like NewExperiment's that scans its root
// candidates whatever postings it could stream from.
func scanning(t *testing.T, ix index.Source, q *pattern.Query, cfg Config, x Experiment) *Engine {
	t.Helper()
	e, err := NewExperiment(ix, q, cfg, x)
	if err != nil {
		t.Fatal(err)
	}
	e.rootVia, e.post = 0, nil
	return e
}

// cursorRun is what one run's root cursor produced, drained without
// evaluating anything: each segment's roots (indexed segFull,
// segInexact, segRest, segDeleted), and the counters it flushed.
type cursorRun struct {
	segs              [numSegs][]int32
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
	c := pr.r.seedRoots(true)
	for more := true; more; more = c.lower() {
		for m := c.next(); m != nil; m = c.next() {
			out.segs[c.seg] = append(out.segs[c.seg], m.bindings[0])
			pr.r.release(m)
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
	if len(whole.segs[segDeleted]) > 0 {
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
// stops at the next slice's, and leaf deletion's later segments walk
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
			checkRootRanges(t, scanning(t, ix, q, cfg, Experiment{}), label, &tally)
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
			checkRootRanges(t, scanning(t, ix, q, cfg, Experiment{}), fmt.Sprintf("%s relax=%v", xpath, mode), &tally)
		}
	}
	// Guards against a vacuous pass.
	if tally.streamed < trials || tally.second < trials/4 || tally.nestedCuts == 0 {
		t.Fatalf("%d cursors streamed from postings, %d had a deleted segment, %d cuts fell inside a root: the property was not exercised",
			tally.streamed, tally.second, tally.nestedCuts)
	}
}
