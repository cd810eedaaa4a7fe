package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// routeTracer is a Scorer and a TraceSink in one, so it sees both ends
// of a match's identity: root creation (Contribution on node 0 names
// the root's ordinal) and every seq the run hands out (spawn events
// cover them in order: a spawn straight after root contributions is
// those roots, any other is extensions of the last routed match). That
// turns RouteDecision's seq into the (root ordinal, server) pair two
// runs with different seq numbering can be compared on.
//
// With eager set it also reports an infinite root contribution bound,
// which makes the root cursor's bounds useless: the first pop then
// drains every root through checkTopK and nothing is ever cut — eager
// seeding, built from the production code path.
type routeTracer struct {
	score.Scorer
	eager bool

	pending  []int // ordinals of roots created since the last spawn event
	lastRoot int
	made     int // the greatest root ordinal created, -1 before any
	seq      int64
	rootOf   map[int64]int
	routes   [][2]int
}

func newRouteTracer(s score.Scorer, eager bool) *routeTracer {
	return &routeTracer{Scorer: s, eager: eager, made: -1, rootOf: make(map[int64]int)}
}

func (s *routeTracer) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		s.pending = append(s.pending, int(ord))
		s.made = max(s.made, int(ord))
	}
	return s.Scorer.Contribution(id, v, ord)
}

func (s *routeTracer) MaxContribution(id int) float64 {
	if s.eager && id == 0 {
		return math.Inf(1)
	}
	return s.Scorer.MaxContribution(id)
}

// MatchLifecycle records every seq it is told about.
func (s *routeTracer) MatchLifecycle(kind obs.Lifecycle, n int) {
	if kind != obs.MatchesSpawned {
		return
	}
	if len(s.pending) > 0 {
		if n != len(s.pending) {
			panic(fmt.Sprintf("spawn of %d after %d root contributions", n, len(s.pending)))
		}
		for _, ord := range s.pending {
			s.seq++
			s.rootOf[s.seq] = ord
		}
		s.pending = s.pending[:0]
		return
	}
	for i := 0; i < n; i++ {
		s.seq++
		s.rootOf[s.seq] = s.lastRoot
	}
}

// RouteDecision records every routing decision.
func (s *routeTracer) RouteDecision(seq int64, next int) {
	root, ok := s.rootOf[seq]
	if !ok {
		panic(fmt.Sprintf("route of unknown seq %d", seq))
	}
	s.lastRoot = root
	s.routes = append(s.routes, [2]int{root, next})
}

func (*routeTracer) RunStart(obs.RunInfo)  {}
func (*routeTracer) Threshold(float64)     {}
func (*routeTracer) QueueDepth(int, int)   {}
func (*routeTracer) RunEnd(obs.RunSummary) {}

// sameAnswers reports whether two results name the same roots with the
// same bindings and scores, position by position; a NaN score matches
// nothing.
func sameAnswers(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Root != b[i].Root || !(math.Abs(a[i].Score-b[i].Score) <= 1e-9) || len(a[i].Bindings) != len(b[i].Bindings) {
			return false
		}
		for j := range a[i].Bindings {
			if a[i].Bindings[j] != b[i].Bindings[j] {
				return false
			}
		}
	}
	return true
}

// checkLazyEqualsEager runs cfg with the lazy cursor and with the eager
// drain and requires the same routed (root, server) sequence, over
// whatever root set the engine streams: every candidate of the root tag
// on the scan path, the roots a posting list reaches on the posting
// path. Under leaf deletion the full pass's segments come first (segFull,
// then segRest): both queue their roots at depth 1 and a segRest root is
// younger than every segFull one, so it loses every tie as eager
// seeding's would, and the sequence is held there too. The posting
// path under leaf deletion is exempt: its segDeleted opens when the
// climb's segments run out, not when priority order says so — a root
// born with via deleted is queued deeper and would pop ahead of an
// earlier root on a tie if both were queued up front. Answers are
// TestEngineAgreesWithNaive's to
// hold. It returns both runs' stats, the access path and the greatest
// root ordinal the lazy run created (-1 if none).
func checkLazyEqualsEager(t *testing.T, ix index.Source, q *pattern.Query, s score.Scorer, cfg Config, label string) (lazy, eager Stats, via string, lastRoot int) {
	t.Helper()
	var res [2]*Result
	var tr [2]*routeTracer
	twoSegments := false
	for i, eagerly := range []bool{false, true} {
		tr[i] = newRouteTracer(s, eagerly)
		c := cfg
		c.Scorer, c.Trace = tr[i], tr[i]
		eng, err := New(ix, q, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res[i], err = eng.Run(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		via, twoSegments = eng.RootVia(), eng.rootVia != 0 && cfg.Relax.Has(relax.LeafDeletion)
	}
	for i := 0; !twoSegments && i < max(len(tr[0].routes), len(tr[1].routes)); i++ {
		if i >= min(len(tr[0].routes), len(tr[1].routes)) || tr[0].routes[i] != tr[1].routes[i] {
			t.Fatalf("%s: route %d differs: lazy routed %d matches, eager %d", label, i, len(tr[0].routes), len(tr[1].routes))
		}
	}
	return res[0].Stats, res[1].Stats, via, tr[0].made
}

// pastRoot counts the candidates past ordinal last that the root cursor
// kills (without leaf deletion, lacksServer) and that it keeps.
func pastRoot(cols *xmltree.Columns, q *pattern.Query, cands []uint32, last int, mode relax.Relaxation) (killed, kept int64) {
	for _, o := range cands {
		if int(o) <= last {
			continue
		}
		if !mode.Has(relax.LeafDeletion) && lacksServer(cols, q, int32(o), mode == relax.None) {
			killed++
		} else {
			kept++
		}
	}
	return killed, kept
}

// lacksServer reports whether n's subtree, walked over the columns with
// no postings, has no node with some non-root query node's tag and value
// test — with exact, none at the depth below n the pattern's path from
// the root prescribes: without leaf deletion the root cursor kills such
// a root, and on an exact run it kills one with no node at that depth.
func lacksServer(cols *xmltree.Columns, q *pattern.Query, n int32, exact bool) bool {
	for id, qn := range q.Nodes[1:] {
		vt, found := index.Test(qn.ValueOp, qn.Value), false
		rp := relax.ComposePath(q, 0, id+1)
		for d := n + 1; d <= cols.End(n) && !found; d++ {
			found = cols.Tag(d) == qn.Tag && vt.Matches(cols.Value(d)) && (!exact || rp.DepthHoldsExact(int(cols.Level[d]-cols.Level[n])))
		}
		if !found {
			return true
		}
	}
	return false
}

var (
	allQueues   = []Queue{QueueMaxFinal, QueueFIFO, QueueCurrentScore, QueueMaxNext}
	allRoutings = []Routing{RoutingStatic, RoutingMaxScore, RoutingMinScore, RoutingMinAlive}
)

// TestCursorPopSequenceEqualsEagerSeeding is the induction the lazy
// root cursor rests on, checked end to end: pulling roots only when one
// could be the next pop routes exactly the matches eager seeding routes,
// in the same order, for the paper's queries and two valued ones — whose
// roots stream from a posting list — under every queue discipline and
// routing strategy. Every //item root is admissible, so on the scan path
// the cut's Pruned accounting must agree with eager seeding too. A cut
// counts in Pruned each candidate the cursor never materialised, once:
// one its segments have neither materialised nor rejected. Seeded
// eagerly, each is created and pruned, or, without leaf deletion and
// lacking some server's tag and value in its subtree — on an exact run,
// at the pattern's depth below it (lacksServer, a column walk) — killed
// at the cursor, which counts it in JoinComparisons only. The tracer
// scorer gives no relaxed bound, so a relaxed run prunes no root at
// birth. Without leaf deletion the one segment cuts the
// candidates past the last root the lazy cursor created, so lazy Pruned
// exceeds eager Pruned by exactly the killed ones among those; if every
// one of them is killed, the lazy cursor may instead have run out
// killing them, as eager seeding does, and the two agree. Under leaf
// deletion nothing is killed, and the two Pruned are equal whichever
// segment the cut falls in. The work counters can only shrink.
func TestCursorPopSequenceEqualsEagerSeeding(t *testing.T) {
	ks := []int{1, 15, 75}
	if testing.Short() {
		ks = []int{15}
	}
	saved := false // guards against a vacuous pass: laziness must pay somewhere
	streamed := 0  // and so must the posting path
	died := false  // and the cut must drop roots that would die at the cursor
	for qi, xpath := range xmarkQueries {
		ix, q, s := xmarkEnv(t, 200, xpath)
		cands := ix.Ords(q.Root().Tag, index.Test(q.Root().ValueOp, q.Root().Value))
		for _, mode := range []relax.Relaxation{relax.None, relax.All} {
			for _, k := range ks {
				for _, queue := range allQueues {
					for _, routing := range allRoutings {
						label := fmt.Sprintf("Q%d/relax=%d/k=%d/%v/%v", qi+1, mode, k, queue, routing)
						cfg := Config{K: k, Relax: mode, Algorithm: WhirlpoolS, Queue: queue, Routing: routing}
						lazy, eager, via, last := checkLazyEqualsEager(t, ix, q, s, cfg, label)
						if via != "scan" {
							streamed++
						} else {
							killed, kept := pastRoot(ix.Cols(), q, cands, last, mode)
							if d := lazy.Pruned - eager.Pruned; d != killed && (kept > 0 || d != 0) {
								t.Fatalf("%s: pruned %d lazily, %d eagerly; of the candidates past root %d, %d die at the cursor and %d do not", label, lazy.Pruned, eager.Pruned, last, killed, kept)
							}
							died = died || killed > 0 && kept > 0
						}
						if lazy.MatchesCreated > eager.MatchesCreated || lazy.ServerOps > eager.ServerOps {
							t.Fatalf("%s: lazy did more work: %+v vs eager %+v", label, lazy, eager)
						}
						saved = saved || lazy.MatchesCreated < eager.MatchesCreated
					}
				}
			}
		}
	}
	if !saved || !died {
		t.Fatal("the lazy cursor never created fewer matches than eager seeding, or no cut root would have died at the cursor")
	}
	if want := 2 * 2 * len(ks) * len(allQueues) * len(allRoutings); streamed != want {
		t.Fatalf("%d configurations streamed roots from a posting list, want the %d of the valued queries", streamed, want)
	}
}

// TestCursorPopSequenceRandom repeats the equivalence on random
// documents and patterns, where root contributions vary (exact and
// edge-generalized roots mix), some root candidates are inadmissible,
// root tags nest, and a quarter of the pattern nodes carry a value.
func TestCursorPopSequenceRandom(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(7000 + trial)))
		doc := randomDoc(r)
		q := randomQuery(r)
		ix := index.Build(doc)
		s := score.NewTFIDF(ix, q, score.Sparse)
		k := 1 + r.Intn(4)
		for _, mode := range []relax.Relaxation{relax.None, relax.EdgeGeneralization | relax.SubtreePromotion, relax.All} {
			for _, queue := range allQueues {
				routing := allRoutings[r.Intn(len(allRoutings))]
				label := fmt.Sprintf("trial %d relax=%d k=%d %v/%v q=%s", trial, mode, k, queue, routing, q)
				cfg := Config{K: k, Relax: mode, Algorithm: WhirlpoolS, Queue: queue, Routing: routing}
				checkLazyEqualsEager(t, ix, q, s, cfg, label)
			}
		}
	}
}

// TestFullPassStopsWhereExactStops: under leaf deletion the root cursor
// first streams the roots that hold a posting of every server, the only
// roots an exact run makes, at the full bound. Once the exact run finds
// k answers at the full score, the later segments' lower bounds cannot
// reach them, so the relaxed run materialises no more roots than the
// exact run; a cursor that streamed every root in document order would
// make every root it meets before the k-th full one. XMark (seed 1, 200
// items): the paper's queries, a location alone (no server but the one
// the roots stream from) and two value templates of cold_shapes
// (location and quantity; location, payment and keyword) over the
// document's constants, at k = 3 and 10, Whirlpool-S under every queue
// discipline but FIFO, whose first pull drains the cursor.
func TestFullPassStopsWhereExactStops(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	values := func(tag string) []string {
		seen := map[string]bool{}
		for _, o := range ix.Ords(tag, index.ValueTest{}) {
			seen[ix.Cols().Value(int32(o))] = true
		}
		out := make([]string, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	shapes := slices.Clone(xmarkQueries)
	for _, loc := range values("location")[:3] {
		shapes = append(shapes, fmt.Sprintf("//item[./location = '%s']", loc))
		for _, qty := range values("quantity") {
			shapes = append(shapes, fmt.Sprintf("//item[./location = '%s' and ./quantity = '%s']", loc, qty))
		}
		for _, pay := range values("payment")[:2] {
			shapes = append(shapes, fmt.Sprintf("//item[./location = '%s' and ./payment = '%s' and .//keyword = 'officer']", loc, pay))
		}
	}
	held := 0
	for _, xpath := range shapes {
		q := pattern.MustParse(xpath)
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, k := range []int{3, 10} {
			for _, queue := range []Queue{QueueMaxFinal, QueueCurrentScore, QueueMaxNext} {
				label := fmt.Sprintf("%s k=%d %v", xpath, k, queue)
				var res [2]*Result
				var full float64
				for i, mode := range []relax.Relaxation{relax.None, relax.All} {
					e, err := New(ix, q, Config{K: k, Relax: mode, Algorithm: WhirlpoolS, Queue: queue, Scorer: s})
					if err != nil {
						t.Fatal(err)
					}
					if res[i], err = e.Run(); err != nil {
						t.Fatal(err)
					}
					full = e.maxContrib[0] + e.sumMax
				}
				exact, relaxed := res[0], res[1]
				if len(exact.Answers) < k || exact.Answers[k-1].Score < full-pruneEps {
					continue // fewer than k roots reach the full score
				}
				held++
				if relaxed.Stats.Roots > exact.Stats.Roots {
					t.Errorf("%s: the relaxed run made %d roots, the exact run %d", label, relaxed.Stats.Roots, exact.Stats.Roots)
				}
			}
		}
	}
	if held < 30 {
		t.Fatalf("only %d runs found k roots at the full score: the property was barely exercised", held)
	}
}

// TestExactRunMakesOnlyExactDepthRoots: an exact run's root cursor
// makes no root that lacks, for some server, a node with its tag and
// value test at the depth below the root the pattern's path prescribes
// — a root that cannot answer — counted by a column walk (lacksServer),
// under every algorithm (LockStep-NoPrun makes every root the cursor
// keeps). XMark (seed 1, 200 items): the paper's queries, whose Q3
// reaches items holding a mail's text, and a quantity-and-mail-keyword
// shape whose keyword sits at several depths below an item, with a
// quantity and the first keyword that some item holds only below
// another path. A root that holds every tag, but not every one at its
// depth, must exist, or a cursor without the depth test passes too.
func TestExactRunMakesOnlyExactDepthRoots(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	cols := ix.Cols()
	items := ix.Ords("item", index.ValueTest{})
	shapes := slices.Clone(xmarkQueries)
	var words []string
	for _, o := range ix.Ords("keyword", index.ValueTest{}) {
		words = append(words, cols.Value(int32(o)))
	}
	slices.Sort(words)
	for _, w := range slices.Compact(words) {
		xpath := fmt.Sprintf("//item[./quantity = '1' and ./mailbox/mail/text/keyword = '%s']", w)
		q := pattern.MustParse(xpath)
		if slices.ContainsFunc(items, func(n uint32) bool {
			return !lacksServer(cols, q, int32(n), false) && lacksServer(cols, q, int32(n), true)
		}) {
			shapes = append(shapes, xpath)
			break
		}
	}
	if len(shapes) == len(xmarkQueries) {
		t.Fatal("no keyword sits below an item at a depth other than a mail text's")
	}
	inexact := 0
	for _, xpath := range shapes {
		q := pattern.MustParse(xpath)
		for _, n := range items {
			if !lacksServer(cols, q, int32(n), false) && lacksServer(cols, q, int32(n), true) {
				inexact++
			}
		}
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
			tally := &rootTally{Scorer: s, times: map[int32]int{}}
			runWith(t, ix, q, Config{K: 15, Relax: relax.None, Algorithm: alg, Scorer: tally})
			for n := range tally.times {
				if lacksServer(cols, q, n, true) {
					t.Fatalf("%s %v: the exact run made root %d, which holds some server only at another depth or not at all", xpath, alg, n)
				}
			}
		}
	}
	if inexact == 0 {
		t.Fatal("no item holds every tag but not every one at its depth: the depth test was not exercised")
	}
}

// cancelAfter is a scorer that cancels a context after a fixed number
// of root contributions — a cancellation that lands mid-cursor — or of
// non-root ones: mid-phase for LockStep, whose Seed drains every root,
// and inside a server operation for Whirlpool-M, whose servers score
// extensions concurrently (hence mu).
type cancelAfter struct {
	score.Scorer
	mu          sync.Mutex
	roots, exts int
	cancel      context.CancelFunc
}

func (s *cancelAfter) Contribution(id int, v score.Variant, ord int32) float64 {
	s.mu.Lock()
	n := &s.roots
	if id != 0 {
		n = &s.exts
	}
	fire := false
	if *n > 0 { // 0 is disarmed
		*n--
		fire = *n == 0
	}
	s.mu.Unlock()
	if fire {
		s.cancel()
	}
	return s.Scorer.Contribution(id, v, ord)
}

// TestRunStateReuseAfterCancel: a run cancelled mid-flight strands
// matches in the queue — Whirlpool-S's with its cursor half pulled,
// LockStep's mid-phase, with the next phase half carried, Whirlpool-M's
// in its router's root pull or in one of its servers; the next run — on
// whatever state the free list hands out — must still score like naive
// and repeat the engine's first run (Whirlpool-M: its answers, not its
// counters), with the arena poison catching any stale match that leaked
// through.
func TestRunStateReuseAfterCancel(t *testing.T) {
	SetArenaPoisonForTest(true)
	defer SetArenaPoisonForTest(false)
	ix, q, s := xmarkEnv(t, 200, "//item[./description/parlist and ./mailbox/mail/text]")
	var naiveScores []float64
	for _, a := range naive.TopK(ix, q, relax.All, s, 15) {
		naiveScores = append(naiveScores, a.Score)
	}
	for _, in := range []struct {
		alg         Algorithm
		queue       Queue
		roots, exts int
	}{
		{WhirlpoolS, QueueMaxFinal, 7, 0},
		{WhirlpoolS, QueueFIFO, 7, 0},
		{LockStep, QueueMaxFinal, 0, 300},
		{LockStepNoPrune, QueueMaxFinal, 0, 300},
		{WhirlpoolM, QueueMaxFinal, 7, 0},
		{WhirlpoolM, QueueMaxFinal, 0, 300},
	} {
		label := fmt.Sprintf("%v/%v/roots=%d/exts=%d", in.alg, in.queue, in.roots, in.exts)
		cfg := Config{K: 15, Relax: relax.All, Algorithm: in.alg, Routing: RoutingMinAlive, Queue: in.queue, Scorer: s}
		eng, err := New(ix, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run()
		if err != nil || !almostEqual(scoresOf(want), naiveScores) {
			t.Fatalf("%s: first run: %v, %v, naive scores %v", label, want, err, naiveScores)
		}
		ctx, cancel := context.WithCancel(context.Background())
		interrupted := cfg
		interrupted.Scorer = &cancelAfter{Scorer: s, roots: in.roots, exts: in.exts, cancel: cancel}
		ieng, err := New(ix, q, interrupted)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ieng.RunContext(ctx); err != context.Canceled {
			t.Fatalf("%s: interrupted run returned %v", label, err)
		}
		for i := 0; i < 3; i++ {
			got, err := eng.Run()
			if err != nil || !sameAnswers(got.Answers, want.Answers) {
				t.Fatalf("%s: run %d after the cancelled one: %v, %v\nwant %v", label, i, got, err, want.Answers)
			}
			// Whirlpool-M's schedule, and with it its counters, varies
			// from run to run.
			if in.alg != WhirlpoolM && (got.Stats.MatchesCreated != want.Stats.MatchesCreated || got.Stats.Pruned != want.Stats.Pruned) {
				t.Fatalf("%s: run %d stats %+v, first run %+v", label, i, got.Stats, want.Stats)
			}
		}
	}
}

// TestRunContextConcurrentReuse: 64 RunContext calls racing on one
// engine each hold a state of their own, so every one must return the
// serial answer (run under -race and the arena poison). A reader polls
// Totals meanwhile, as whirlpoold's /stats does, and every run must be
// counted once.
func TestRunContextConcurrentReuse(t *testing.T) {
	SetArenaPoisonForTest(true)
	defer SetArenaPoisonForTest(false)
	ix, q, s := xmarkEnv(t, 200, "//item[./description/parlist and ./mailbox/mail/text]")
	eng, err := New(ix, q, Config{K: 15, Relax: relax.All, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
				if tot := eng.Totals(); tot.Runs < 1 {
					t.Errorf("Totals().Runs = %d mid-flight, want at least the serial run", tot.Runs)
					return
				}
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				got, err := eng.RunContext(context.Background())
				if err != nil || !sameAnswers(got.Answers, want.Answers) {
					t.Errorf("concurrent run: %v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-polled
	if tot := eng.Totals(); tot.Runs != 1+64*4 || tot.Aborted != 0 {
		t.Fatalf("Totals() = %d runs, %d aborted; want %d runs, 0 aborted", tot.Runs, tot.Aborted, 1+64*4)
	}
}

// TestIdleStatesStayBounded: run state is pooled per binding width, not
// per engine, so 768 distinct engines — a daemon's cold_shapes traffic —
// leave behind a bounded number of bounded states, none of which pins
// an engine or a document.
func TestIdleStatesStayBounded(t *testing.T) {
	ix, _, _ := xmarkEnv(t, 200, "//item")
	shapes := []string{
		"//item[./name]",
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 768; i++ {
		q := pattern.MustParse(shapes[i%len(shapes)])
		alg := WhirlpoolS
		if i%5 == 4 {
			alg = LockStep // walks every root: an arena too big to keep
		}
		cfg := Config{K: 1 + i%40, Relax: relax.All, Algorithm: alg, Scorer: score.NewTFIDF(ix, q, score.Sparse)}
		runWith(t, ix, q, cfg)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	idleStates.mu.Lock()
	defer idleStates.mu.Unlock()
	if n := len(idleStates.list); n > maxIdleStates {
		t.Fatalf("%d idle states, bound %d", n, maxIdleStates)
	}
	for _, st := range idleStates.list {
		held := len(st.topk.ents) + len(st.arena.free)
		if held > maxIdleMatches {
			t.Fatalf("idle state holds %d matches and entries, bound %d", held, maxIdleMatches)
		}
		if st.r.Engine != nil || st.r.ctx != nil || st.r.roots.cands != nil {
			t.Fatal("idle state still references its last run")
		}
	}
	// Worst case by the two bounds above is ~30 MB; what 768 small
	// engines actually leave is a few states of a chunk or two each.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("heap grew %d bytes across 768 engines", grew)
	}
}

// TestParallelRunCursorContract pins the liveness contract of a run
// that is seeded but not over, stepped by its one stepper. The stepped
// algorithms — Whirlpool-S, whose roots are still in the cursor, and
// LockStep, whose later phases are still to open: it is not done, its
// live count is at least 1, and every Step makes progress even from an
// empty heap. Whirlpool-M: the first Step runs it whole and returns 0,
// done; a second Step does nothing. Either way the run ends with
// RunContext's answers and (Whirlpool-M aside) counters, and a run
// cancelled before or during its first Step never reads done, finishes
// with the context's error and — under the arena poison — leaves
// nothing behind for the next run to trip on.
func TestParallelRunCursorContract(t *testing.T) {
	SetArenaPoisonForTest(true)
	defer SetArenaPoisonForTest(false)
	ix, q, s := xmarkEnv(t, 200, "//item[./description/parlist and ./mailbox/mail/text]")
	type input struct {
		alg   Algorithm
		queue Queue
	}
	var inputs []input
	for _, queue := range allQueues {
		inputs = append(inputs, input{WhirlpoolS, queue})
	}
	for _, alg := range []Algorithm{WhirlpoolM, LockStep, LockStepNoPrune} {
		inputs = append(inputs, input{alg, QueueMaxFinal})
	}
	for _, in := range inputs {
		label := fmt.Sprintf("%v/%v", in.alg, in.queue)
		// The hook fires inside the run, on the root it is armed for.
		hook := &cancelAfter{Scorer: s, cancel: func() {}}
		cfg := Config{K: 3, Relax: relax.All, Algorithm: in.alg, Queue: in.queue, Scorer: hook}
		e, err := New(ix, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		open := func(ctx context.Context) (*ParallelRun, *SharedTopK) {
			shared := NewSharedTopK(cfg.K, 0)
			p, err := e.NewParallelRun(ctx, shared, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p.IsDone() {
				t.Fatalf("%s: unseeded run reads done", label)
			}
			p.Seed()
			return p, shared
		}

		p, shared := open(context.Background())
		ws := NewScratch()
		if in.alg != WhirlpoolM {
			for steps := 0; !p.IsDone(); steps++ {
				// One stepper: nothing is in flight between Steps, so all
				// remaining work is in the live count.
				if p.q.live < 1 {
					t.Fatalf("%s: live run reports live=%d after %d steps", label, p.q.live, steps)
				}
				if n := p.Step(ws, 1); n != 1 && !p.IsDone() {
					t.Fatalf("%s: Step consumed %d matches from a live run", label, n)
				}
				if steps > 1<<20 {
					t.Fatalf("%s: run does not terminate", label)
				}
			}
		} else {
			if p.IsDone() {
				t.Fatalf("%s: seeded Whirlpool-M run reads done before its Step", label)
			}
			if n := p.Step(ws, 1); n != 0 || !p.IsDone() {
				t.Fatalf("%s: Step consumed %d, done=%v", label, n, p.IsDone())
			}
			if n := p.Step(ws, 1); n != 0 {
				t.Fatalf("%s: a second Step consumed %d", label, n)
			}
		}
		if p.q.live != 0 {
			t.Fatalf("%s: done run has live %d", label, p.q.live)
		}
		stats, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := shared.Answers(); !sameAnswers(got, want.Answers) {
			t.Fatalf("%s: stepped answers %v, want %v", label, got, want.Answers)
		}
		// Whirlpool-M's schedule, and with it its counters, varies from
		// run to run.
		if stats.Duration, want.Stats.Duration = 0, 0; in.alg != WhirlpoolM && stats != want.Stats {
			t.Fatalf("%s: stepped stats %+v, RunContext %+v", label, stats, want.Stats)
		}

		for _, midRun := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			hook.roots, hook.exts, hook.cancel = 0, 0, cancel
			switch {
			case midRun && (in.alg == LockStep || in.alg == LockStepNoPrune):
				hook.exts = 50 // cancelled mid-phase: Seed drains every root
			case midRun:
				hook.roots = 2 // cancelled from inside the run: the k = 3 runs make at least three roots
			}
			p, _ := open(ctx)
			if !midRun {
				cancel()
			}
			for !p.IsDone() {
				if p.Step(ws, 1) == 0 && ctx.Err() != nil {
					break
				}
			}
			if p.IsDone() {
				t.Fatalf("%s: run cancelled (mid-run %v) reads done", label, midRun)
			}
			if _, err := p.Finish(); err != context.Canceled {
				t.Fatalf("%s: Finish after cancel (mid-run %v) returned %v", label, midRun, err)
			}
		}
		if tot := e.Totals(); tot.Aborted != 2 || tot.Runs != 2 {
			t.Fatalf("%s: totals %+v, want 2 runs and 2 aborts", label, tot)
		}
		hook.cancel = func() {}
		again, err := e.Run()
		if err != nil || !sameAnswers(again.Answers, want.Answers) {
			t.Fatalf("%s: run after the cancelled ones: %v, %v\nwant %v", label, again, err, want.Answers)
		}
	}
}

// TestLockStepSteppedMatchesRunContext: a LockStep run is a schedule on
// the Step loop's queue, one phase at a time, so however it is stepped
// it must do RunContext's work. For the paper's queries and two valued
// ones (whose roots stream from a posting list, leaf deletion's born
// past a server), every relaxation mode and queue discipline, at k 1
// and 15: RunContext's top-k scores are naive's, and its one stepper
// at any budget repeats RunContext's answers and counters to the digit.
func TestLockStepSteppedMatchesRunContext(t *testing.T) {
	modes := []struct {
		name string
		r    relax.Relaxation
	}{{"none", relax.None}, {"all", relax.All}, {"leaf-deletion", relax.LeafDeletion}}
	streamed := 0
	for qi, xpath := range xmarkQueries {
		ix, q, s := xmarkEnv(t, 100, xpath)
		for _, mode := range modes {
			// The top-k scores are a prefix of the top-75's.
			var naiveScores []float64
			for _, a := range naive.TopK(ix, q, mode.r, s, 75) {
				naiveScores = append(naiveScores, a.Score)
			}
			for _, alg := range []Algorithm{LockStep, LockStepNoPrune} {
				for _, queue := range allQueues {
					t.Run(fmt.Sprintf("%v/Q%d/relax=%s/%v", alg, qi+1, mode.name, queue), func(t *testing.T) {
						for _, k := range []int{1, 15} {
							cfg := Config{K: k, Relax: mode.r, Algorithm: alg, Queue: queue, Scorer: s}
							if checkLockStepStepped(t, ix, q, cfg, naiveScores[:min(k, len(naiveScores))]) != "scan" {
								streamed++
							}
						}
					})
				}
			}
		}
	}
	if want := 2 * len(modes) * 2 * len(allQueues) * 2; streamed != want {
		t.Fatalf("%d configurations streamed roots from a posting list, want the %d of the valued queries", streamed, want)
	}
}

// checkLockStepStepped runs cfg through RunContext, then through
// ParallelRuns stepped alone at budgets 1 and 64. It returns the root
// access path.
func checkLockStepStepped(t *testing.T, ix *index.Index, q *pattern.Query, cfg Config, naiveScores []float64) string {
	t.Helper()
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(scoresOf(want), naiveScores) {
		t.Fatalf("k=%d: RunContext scores %v, naive %v", cfg.K, scoresOf(want), naiveScores)
	}
	want.Stats.Duration = 0
	open := func() (*ParallelRun, *SharedTopK) {
		shared := NewSharedTopK(cfg.K, 0)
		p, err := e.NewParallelRun(context.Background(), shared, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed()
		return p, shared
	}
	ws := NewScratch()
	for _, budget := range []int{1, 64} {
		p, shared := open()
		for !p.IsDone() {
			if p.Step(ws, budget) == 0 {
				t.Fatalf("k=%d/budget=%d: a lone stepper found a live run empty", cfg.K, budget)
			}
		}
		stats, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := shared.Answers(); !sameAnswers(got, want.Answers) {
			t.Fatalf("k=%d/budget=%d: stepped answers %v, RunContext %v", cfg.K, budget, got, want.Answers)
		}
		if stats.Duration = 0; stats != want.Stats {
			t.Fatalf("k=%d/budget=%d: stepped stats %+v, RunContext %+v", cfg.K, budget, stats, want.Stats)
		}
	}
	return e.RootVia()
}

// TestParallelRunFullyCutAtSeed: against a shared set another shard has
// already filled with perfect scores, every root of a range after the
// k-th root is ruled out before it exists (a tying root before it would
// still displace the k-th entry). The run is done on Seed's return,
// created nothing, and reports the roots as pruned by the remote
// threshold — the same attribution run.prune gives a match pruned at
// its pop.
func TestParallelRunFullyCutAtSeed(t *testing.T) {
	ix, q, s := xmarkEnv(t, 200, "//item[./description/parlist]")
	sink := &obs.Collector{}
	cfg := Config{K: 3, Relax: relax.All, Algorithm: WhirlpoolS, Scorer: s, Trace: sink}
	e, err := New(ix, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSharedTopK(cfg.K, 0)
	runShared(t, e, shared, 0)
	prunedBefore := sink.LifeTotal(obs.MatchesPruned)
	answers := shared.Answers()
	if kth := answers[len(answers)-1].Root; kth >= int32(e.roots[len(e.roots)/2]) {
		t.Fatalf("k-th root %d is not before the second half of the roots", kth)
	}
	p, err := e.NewShardRun(context.Background(), shared, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed()
	if !p.IsDone() || p.q.live != 0 {
		t.Fatalf("fully cut run: done=%v live=%d", p.IsDone(), p.q.live)
	}
	stats, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	roots := int64(len(e.roots) - len(e.roots)/2)
	if stats.MatchesCreated != 0 || stats.ServerOps != 0 || stats.Pruned != roots || stats.PrunedRemote != roots {
		t.Fatalf("fully cut run over %d roots: %+v", roots, stats)
	}
	if got := sink.LifeTotal(obs.MatchesPruned) - prunedBefore; got != roots {
		t.Fatalf("trace saw %d pruned, stats %d", got, roots)
	}
}

// warmRun is a RunContext of alg on an engine over the books document
// that has run once: its state comes off the free list.
func warmRun(tb testing.TB, alg Algorithm, routing Routing, queue Queue, mode relax.Relaxation) func() {
	doc, err := xmltree.ParseString(booksXML)
	if err != nil {
		tb.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse("/book[./title and ./info/isbn]")
	s := score.NewTFIDF(ix, q, score.Sparse)
	return warmEngine(tb, ix, q, Config{K: 2, Relax: mode, Algorithm: alg, Routing: routing, Queue: queue, Scorer: s})
}

// warmEngine builds an engine from cfg and runs it once, returning the
// warm RunContext.
func warmEngine(tb testing.TB, ix index.Source, q *pattern.Query, cfg Config) func() {
	e, err := New(ix, q, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	run := func() {
		if _, err := e.RunContext(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	run()
	return run
}

// TestRunReuseAllocs: all a warm RunContext allocates is the answer
// copy handed to the caller (the Result, its answers slice and their
// shared bindings block) — for Whirlpool-S under every routing strategy
// and queue discipline, each of which has its own per-match code on the
// hot path, and for LockStep and LockStep-NoPrun (stepPhase, pq.carry)
// under every queue discipline. The books runs create too few matches
// to fill one arena slab, so the pinned XMark case (seed 1, 200 items,
// Q2, k = 15, min_alive) is the input that holds the arena to
// recycling: without it a warm run carves a fresh slab every arenaChunk
// matches.
func TestRunReuseAllocs(t *testing.T) {
	check := func(t *testing.T, run func()) {
		if allocs := testing.AllocsPerRun(100, run); allocs > 3 {
			t.Fatalf("warm RunContext allocates %.1f objects/op, want the 3 of the answer copy", allocs)
		}
	}
	for _, routing := range []Routing{RoutingStatic, RoutingMaxScore, RoutingMinScore, RoutingMinAlive} {
		for _, queue := range []Queue{QueueMaxFinal, QueueFIFO, QueueCurrentScore, QueueMaxNext} {
			for _, mode := range []struct {
				name  string
				relax relax.Relaxation
			}{{"exact", relax.None}, {"relaxed", relax.All}} {
				t.Run(routing.String()+"/"+queue.String()+"/"+mode.name, func(t *testing.T) {
					check(t, warmRun(t, WhirlpoolS, routing, queue, mode.relax))
				})
			}
		}
	}
	for _, alg := range []Algorithm{LockStep, LockStepNoPrune} {
		for _, queue := range []Queue{QueueMaxFinal, QueueFIFO, QueueCurrentScore, QueueMaxNext} {
			for _, mode := range []relax.Relaxation{relax.None, relax.All} {
				t.Run(fmt.Sprintf("%v/%v/relax=%d", alg, queue, mode), func(t *testing.T) {
					check(t, warmRun(t, alg, RoutingStatic, queue, mode))
				})
			}
		}
	}
	t.Run("xmark-seed1-200/Q2", func(t *testing.T) {
		doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(doc)
		q := pattern.MustParse("//item[./description/parlist and ./mailbox/mail/text]")
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, alg := range []Algorithm{WhirlpoolS, LockStep} {
			check(t, warmEngine(t, ix, q, Config{K: 15, Relax: relax.All, Algorithm: alg, Routing: RoutingMinAlive, Scorer: s}))
		}
	})
}

// TestWhirlpoolMAllocsPerRun: a warm Whirlpool-M run allocates per
// run — its queues, condition variables, server goroutines and their
// scratch — never per match. On XMark (seed 1, 400 items) Q2 and Q3,
// relaxed, each query runs at k = 75 and at k = 300, which must do at
// least twice the server operations (about 660 against 2 400 on Q2, 2 000
// against 5 200 on Q3). The larger run may allocate at most 8 objects
// more than the smaller, room for a deeper heap and a larger top-k set;
// one allocation per match — in the router's pop or a server's loop —
// would add hundreds. Neither may exceed 160 (about 90 on Q2 and 131 on
// Q3), which leaves room for the runtime's goroutine bookkeeping.
func TestWhirlpoolMAllocsPerRun(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 400})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	for _, xpath := range []string{
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	} {
		q := pattern.MustParse(xpath)
		var ops [2]int64
		var allocs [2]float64
		for i, k := range []int{75, 300} {
			e, err := New(ix, q, Config{K: k, Relax: relax.All, Algorithm: WhirlpoolM, Routing: RoutingMinAlive, Scorer: score.NewTFIDF(ix, q, score.Sparse)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			ops[i], allocs[i] = res.Stats.ServerOps, testing.AllocsPerRun(20, func() { e.Run() })
			t.Logf("%s k=%d: %d server operations, %.0f allocations", xpath, k, ops[i], allocs[i])
			if allocs[i] > 160 {
				t.Fatalf("%s k=%d: warm Whirlpool-M run allocates %.0f objects, want at most 160", xpath, k, allocs[i])
			}
		}
		if ops[1] < 2*ops[0] {
			t.Fatalf("%s: %d and %d server operations, too close to tell a per-match allocation from a per-run one", xpath, ops[0], ops[1])
		}
		if allocs[1] > allocs[0]+8 {
			t.Fatalf("%s: %.0f allocations at %d server operations, %.0f at %d: allocations grow with the work", xpath, allocs[1], ops[1], allocs[0], ops[0])
		}
	}
}

func BenchmarkRunReuse(b *testing.B) {
	run := warmRun(b, WhirlpoolS, RoutingMinAlive, QueueMaxFinal, relax.All)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
