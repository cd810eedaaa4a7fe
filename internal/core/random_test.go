package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// randomDoc builds a random forest in which the query root tag "a" nests
// at every level — so root ranges start and end inside one another —
// and about half the nodes carry a value: a word, or a number some of
// randomQuery's comparands equal.
func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "a", "b", "c", "d"}
	values := []string{"", "", "", "", "", "x", "y", "xy", "1", "2.5", "10"}
	b := xmltree.NewBuilder()
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 4 {
			return
		}
		for j, kids := 0, r.Intn(4); j < kids; j++ {
			b.Open(tags[r.Intn(len(tags))]).Text(values[r.Intn(len(values))])
			grow(depth + 1)
			b.Close()
		}
	}
	for i, roots := 0, 1+r.Intn(3); i < roots; i++ {
		b.Root("a")
		grow(1)
	}
	return b.Doc()
}

// randomQuery builds a random tree pattern of two to five nodes rooted
// at "a". A non-root node carries a content predicate one time in
// three, the root one time in five, so valued and value-free patterns
// both occur; the predicates span every operator of the language.
func randomQuery(r *rand.Rand) *pattern.Query {
	predicates := [][2]string{{"", "x"}, {"", "y"}, {"!=", "x"}, {"contains", "x"}, {"<", "2.5"}, {"<=", "2.5"}, {">", "1"}, {">=", "10"}}
	valued := func(n *pattern.Node, odds int) {
		if r.Intn(odds) == 0 {
			p := predicates[r.Intn(len(predicates))]
			n.ValueOp, n.Value = p[0], p[1]
		}
	}
	axes := []dewey.Axis{dewey.Child, dewey.Descendant}
	q := pattern.New("a", axes[r.Intn(2)])
	valued(q.Root(), 5)
	for i, nodes := 0, 1+r.Intn(4); i < nodes; i++ {
		valued(q.Nodes[q.Add(r.Intn(q.Size()), []string{"a", "b", "c", "d"}[r.Intn(4)], axes[r.Intn(2)])], 3)
	}
	return q
}

// agreeCase is a document and pattern for checkAgainstNaive, with the
// static orders it sweeps, the k it runs at (each also at k+1), the
// shard counts its shard runs take and its scorer's normalization. With draw set, each relaxation draws
// one backing and one queue from it, and one configuration to run also
// as a forced scan and in shard runs. A pinned case is a subtest per
// relaxation and runs those variants for every algorithm at its first
// static order.
type agreeCase struct {
	name   string
	doc    *xmltree.Document
	q      *pattern.Query
	orders [][]int
	ks     []int
	shards []int
	draw   *rand.Rand
	pinned bool
	norm   score.Normalization
}

// randomCase draws a document, a pattern, one static order (nil, the
// default, among them), one k and one shard count.
func randomCase(r *rand.Rand, name string) agreeCase {
	doc, q := randomDoc(r), randomQuery(r)
	orders := append([][]int{nil}, q.ServerOrders()...)
	return agreeCase{name, doc, q, [][]int{orders[r.Intn(len(orders))]}, []int{1 + r.Intn(4)}, []int{[]int{2, 3, 8, 64}[r.Intn(4)]}, r, false, score.Sparse}
}

// xmarkQueries are the paper's three queries and two valued ones, whose
// roots stream from a posting list.
var xmarkQueries = []string{
	"//item[./description/parlist]",
	"//item[./description/parlist and ./mailbox/mail/text]",
	"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	"//item[./location = 'United States' and ./quantity = '1']",
	"//mail[./from and .//keyword = 'officer']",
}

// pinnedCases, named document/q<i> for their subtests, are Figure 1's
// bookstore (also under a one-node pattern and one with no root), the
// smallest document on which leaf deletion without subtree promotion
// once bound a child ahead of its unbound parent, the value-operator
// shop and, under dense scores, a document where no root holds every
// server and the better one lacks the cheaper server (the segment after
// the root cursor's full pass is bounded by its smallest missing
// contribution), swept over every static order at k = 1 and 3; and XMark (seed
// 3, 50 items) under xmarkQueries, drawing order, k, backing and queue
// as a random trial does, and at k = 4096, where no pruning can hide a
// divergence.
func pinnedCases(t *testing.T) (cases []agreeCase) {
	for _, d := range []struct {
		name, xml string
		xpaths    []string
		norm      score.Normalization
	}{
		{"books", booksXML, []string{"/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']", "/book", "/magazine[./title]"}, score.Sparse},
		{"parents-first", "<a><c>x</c><c>y<b/></c></a>", []string{"//a[.//a[./c[./b]] = 'y']"}, score.Sparse},
		{"segments", "<r><x><b/></x><x><a/></x><x><b/></x></r>", []string{"//x[./a and ./b]"}, score.Dense},
		{"shop", shopXML, []string{
			"/book[./price < 20 and ./title contains 'wodehouse']",
			"/book[./price > 10]",
			"/book[./title != 'austen' and ./price <= 48.95]",
			"/book[./price >= 30]",
			"/book[./title contains 'wodehouse']",
		}, score.Sparse},
	} {
		doc, err := xmltree.ParseString(d.xml)
		if err != nil {
			t.Fatal(err)
		}
		for i, xpath := range d.xpaths {
			q := pattern.MustParse(xpath)
			cases = append(cases, agreeCase{fmt.Sprintf("%s/q%d", d.name, i), doc, q, append([][]int{nil}, q.ServerOrders()...), []int{1, 3}, []int{2, 8}, nil, true, d.norm})
		}
	}
	doc, err := xmark.Generate(xmark.Options{Seed: 3, Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, xpath := range xmarkQueries {
		r := rand.New(rand.NewSource(int64(i)))
		q := pattern.MustParse(xpath)
		orders := append([][]int{nil}, q.ServerOrders()...)
		cases = append(cases, agreeCase{fmt.Sprintf("xmark/q%d", i), doc, q, [][]int{orders[r.Intn(len(orders))]}, []int{1 + r.Intn(4), everyRoot}, []int{2, 8}, r, true, score.Sparse})
	}
	return cases
}

// everyRoot is a k above any test document's root count.
const everyRoot = 4096

// nearTie is the score distance within which summation order may decide
// two roots' order: the engine adds a match's contributions in the
// order its servers visit it, naive in query-node order.
const nearTie = 1e-9

// naiveRanking is every root naive answers, best first (score
// descending, root ascending): naive's top-k for every k is a prefix.
func naiveRanking(ix index.Source, q *pattern.Query, mode relax.Relaxation, s score.Scorer) []Answer {
	var out []Answer
	for _, a := range naive.TopK(ix, q, mode, s, math.MaxInt) {
		out = append(out, Answer{Root: a.Root.Ord, Score: a.Score})
	}
	return out
}

// agreeWithNaive holds an engine's top-k to naive's ranking, root and
// score, position by position. Each answer scores within nearTie of
// naive's score for its root, and the roots are naive's ranking
// re-sorted under the engine's scores, cut at k. A root missing from
// the answers is passed over only where its naive score is within
// nearTie of the k-th answer's and not bit-equal to it: the engine may
// have summed it below. Where every bit agrees this is naive's top-k
// exactly; nearTies reports that it is not.
func agreeWithNaive(got, ranking []Answer, k int) (nearTies bool, err error) {
	naiveScore, gotScore := map[int32]float64{}, map[int32]float64{}
	for _, a := range ranking {
		naiveScore[a.Root] = a.Score
	}
	for i, g := range got {
		if s, ok := naiveScore[g.Root]; !ok || !(math.Abs(s-g.Score) <= nearTie) { // a NaN score fails
			return false, fmt.Errorf("answer %d is root %d scoring %v; naive: %v, %v", i, g.Root, g.Score, s, ok)
		}
		gotScore[g.Root] = g.Score
	}
	if want := min(k, len(ranking)); len(got) != want {
		return false, fmt.Errorf("%d answers, naive %d", len(got), want)
	}
	var want []Answer
	for _, a := range ranking {
		if s, ok := gotScore[a.Root]; ok {
			a.Score = s
		} else if kth := got[len(got)-1].Score; a.Score != kth && math.Abs(a.Score-kth) <= nearTie {
			continue
		}
		want = append(want, a)
	}
	slices.SortStableFunc(want, func(a, b Answer) int { return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Root, b.Root)) })
	for i, g := range got {
		if g.Root != want[i].Root {
			return false, fmt.Errorf("answer %d is root %d scoring %v, want root %d scoring %v", i, g.Root, g.Score, want[i].Root, want[i].Score)
		}
		nearTies = nearTies || g.Root != ranking[i].Root
	}
	return nearTies, nil
}

// holds decides a content predicate with strconv and strings, sharing
// nothing with index.ValueTest, which naive and the engine both probe
// through.
func holds(op, cmp, v string) bool {
	x, errX := strconv.ParseFloat(v, 64)
	c, errC := strconv.ParseFloat(cmp, 64)
	switch {
	case op == "" || op == "=":
		return cmp == "" || v == cmp
	case op == "!=":
		return v != cmp
	case op == "contains":
		return strings.Contains(v, cmp)
	case errX != nil || errC != nil:
		return false
	}
	return op == "<" && x < c || op == "<=" && x <= c || op == ">" && x > c || op == ">=" && x >= c
}

// checkBindings holds every bound node to its pattern node: inside the
// root's subtree, with the node's tag and content predicate; only leaf
// deletion leaves a non-root node unbound.
func checkBindings(cols *xmltree.Columns, q *pattern.Query, mode relax.Relaxation, as []Answer) error {
	for i, a := range as {
		for id, b := range a.Bindings {
			n := q.Nodes[id]
			if b < 0 && (id == 0 || !mode.Has(relax.LeafDeletion)) ||
				b >= 0 && (id > 0 && !cols.Contains(a.Root, b) || cols.Tag(b) != n.Tag || !holds(n.ValueOp, n.Value, cols.Value(b))) {
				return fmt.Errorf("answer %d binds node %d (%s %s %q) to %d", i, id, n.Tag, n.ValueOp, n.Value, b)
			}
		}
	}
	return nil
}

// agreeTally counts the runs, those within the near-tie allowance, the
// random trials, and what the property must exercise: runs that
// streamed their roots from postings (under leaf deletion too) and
// shard runs with more shards than roots.
type agreeTally struct {
	runs, nearTies, trials        atomic.Int64
	streamed, streamedLeafDeleted atomic.Int64
	shardRuns, wideShardRuns      atomic.Int64
	paperRoots                    atomic.Int64
}

// relaxModes are the relaxations checkAgainstNaive sweeps: none, each
// family alone, and all.
var relaxModes = []struct {
	name string
	mode relax.Relaxation
}{{"none", relax.None}, {"edge", relax.EdgeGeneralization}, {"leaf", relax.LeafDeletion}, {"promote", relax.SubtreePromotion}, {"all", relax.All}}

// backings returns doc's three index.Sources: index.Build, a snapshot
// read from memory (store.ParseSnapshot) and one mapped from a new file
// in dir (store.OpenSnapshot), which closes with the test.
func backings(t *testing.T, dir string, doc *xmltree.Document) []index.Source {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Cols: doc.Columns()}); err != nil {
		t.Fatal(err)
	}
	parsed, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(dir, "*.wpxs")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write(buf.Bytes()) // a failed write or close fails the open's checksum
	_ = f.Close()
	mapped, err := store.OpenSnapshot(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return []index.Source{index.Build(doc), parsed, mapped}
}

// agreeRun is one configuration checkAgainstNaive runs: the query it
// evaluates (the canonical one under the planner's plan), and whether
// it also runs as a forced scan and in shard runs.
type agreeRun struct {
	q        *pattern.Query
	cfg      Config
	x        Experiment // PaperRoots drawn: the figures' pruning, or per-root bounds and dominance
	label    string
	key      [2]int // static order and plan, for the LockStep comparison
	variants bool
}

// checkAgainstNaive runs c for each relaxation {None, each family, All}
// × backing {index.Build, store.ParseSnapshot, store.OpenSnapshot in
// dir} × queue × algorithm × routing × static order × plan {none,
// CompilePlan over walked statistics, what Planner.PlanFor compiles} × k
// × root server {per-root bounds, Experiment.PaperRoots}, and holds each run to agreeWithNaive and checkBindings, top-k to be a
// prefix of top-(k+1), and LockStep-NoPrun to create at least LockStep's
// matches, skipping what cannot differ: LockStep's routing, an adaptive
// routing's orders but the first, and a plan under an explicit static
// order (the planner's runs at the first order, on its own). One drawn
// run per relaxation, backing and queue (and a pinned case's every
// algorithm at its first order, on the default queue or the drawn one)
// also runs as a forced scan and in shard runs (checkVariants). The root
// server is drawn per run (a sweep alternates it); LockStep-NoPrun takes
// the one LockStep ran on at its order and plan, as it is held to
// LockStep's matches created.
func checkAgainstNaive(t *testing.T, dir string, c agreeCase, tally *agreeTally) {
	t.Helper()
	srcs := backings(t, dir, c.doc)
	ix := srcs[0]
	stats := score.CollectStats(ix, nil, c.q)
	s := score.NewTFIDFFromStats(stats, c.norm)
	// What Planner.PlanFor compiles from: the canonical query, its
	// statistics from the synopsis and a predicate memo.
	cq := pattern.Canonicalize(c.q)
	cstats := score.CollectStats(ix, score.NewMemo(ix, synopsis.FromColumns(ix.Cols())), cq)
	cs := score.NewTFIDFFromStats(cstats, c.norm)
	pick := func(n int) []int {
		if c.draw != nil {
			return []int{c.draw.Intn(n)}
		}
		return []int{0, 1, 2, 3}[:n]
	}
	for _, m := range relaxModes {
		check := func(t *testing.T) {
			t.Helper()
			ranking := naiveRanking(ix, c.q, m.mode, s)
			walked, err := CompilePlan(stats, c.q, m.mode, s, "")
			if err != nil {
				t.Fatal(err)
			}
			planned, err := CompilePlan(cstats, cq, m.mode, cs, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, bi := range pick(len(srcs)) {
				for _, qi := range pick(len(allQueues)) {
					if c.draw == nil && bi > 0 && qi > 0 {
						continue // a sweep runs every queue on index.Build, every backing on the default queue
					}
					var runs []agreeRun
					paperAt := map[[2]int]bool{} // LockStep's root server, per order and plan
					for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
						for ri, routing := range allRoutings {
							static := alg >= LockStep || routing == RoutingStatic
							for oi, order := range c.orders {
								for pi, p := range []*Plan{nil, walked, planned} {
									if alg >= LockStep && ri > 0 || !static && oi > 0 || static && (pi == 1 && order != nil || pi == 2 && oi > 0) {
										continue
									}
									r := agreeRun{q: c.q, key: [2]int{oi, pi}, variants: c.pinned && (c.draw != nil || qi == 0) && ri == 0 && oi == 0 && pi == 0,
										cfg: Config{Relax: m.mode, Algorithm: alg, Routing: routing, Queue: allQueues[qi], Order: order, Plan: p, Scorer: s}}
									if p == planned {
										r.q, r.cfg.Scorer, r.cfg.Order = cq, cs, nil
									}
									r.x.PaperRoots = len(runs)%2 == 1
									if c.draw != nil {
										r.x.PaperRoots = c.draw.Intn(2) == 1
									}
									switch alg {
									case LockStep:
										paperAt[r.key] = r.x.PaperRoots
									case LockStepNoPrune:
										r.x.PaperRoots = paperAt[r.key]
									}
									r.label = fmt.Sprintf("%s relax=%v %v/%v/%v order=%v plan=%s %s paper-roots=%v", c.name, m.mode, alg, routing, r.cfg.Queue, r.cfg.Order, []string{"none", "walked", "planner"}[pi], []string{"built", "parsed", "mapped"}[bi], r.x.PaperRoots)
									runs = append(runs, r)
								}
							}
						}
					}
					if c.draw != nil {
						runs[c.draw.Intn(len(runs))].variants = true
					}
					lockStep := map[[2]int][]int64{} // matches created, per order and plan
					for _, r := range runs {
						created := checkConfig(t, srcs[bi], c, r, ranking, tally, lockStep[r.key])
						if r.cfg.Algorithm == LockStep {
							lockStep[r.key] = created
						}
					}
				}
			}
		}
		if c.pinned {
			t.Run(m.name, check)
		} else {
			check(t)
		}
	}
}

// checkConfig runs r at each of c's k and at k+1 (see
// checkAgainstNaive) and returns the matches each run created; a
// LockStep-NoPrun run holds them to at least lockStep's.
func checkConfig(t *testing.T, src index.Source, c agreeCase, r agreeRun, ranking []Answer, tally *agreeTally, lockStep []int64) (created []int64) {
	t.Helper()
	cfg, label := r.cfg, r.label
	for _, k := range c.ks {
		var prev []Answer
		for _, cfg.K = range []int{k, k + 1} {
			if cfg.K > k && k >= len(ranking) { // top-k is every answer: k+1 runs the same
				break
			}
			eng, err := NewExperiment(src, r.q, cfg, r.x)
			if err != nil {
				t.Fatalf("%s k=%d: %v", label, cfg.K, err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s k=%d: %v", label, cfg.K, err)
			}
			if n := res.Stats.MatchesCreated; cfg.Algorithm == LockStepNoPrune && n < lockStep[len(created)] {
				t.Fatalf("%s k=%d: LockStep-NoPrun created %d matches, LockStep %d", label, cfg.K, n, lockStep[len(created)])
			}
			tally.runs.Add(1)
			if r.x.PaperRoots {
				tally.paperRoots.Add(1)
			}
			if eng.rootVia != 0 {
				tally.streamed.Add(1)
				if cfg.Relax.Has(relax.LeafDeletion) && res.Stats.Roots > 0 {
					tally.streamedLeafDeleted.Add(1)
				}
			}
			created = append(created, res.Stats.MatchesCreated)
			nearTies, err := agreeWithNaive(res.Answers, ranking, cfg.K)
			if err == nil {
				err = checkBindings(src.Cols(), r.q, cfg.Relax, res.Answers)
			}
			if err != nil {
				var doc strings.Builder
				c.doc.Serialize(&doc)
				t.Fatalf("%s k=%d q=%s: %v\n  got %v\nnaive %v\ndoc: %s", label, cfg.K, r.q, err, res.Answers, ranking, &doc)
			}
			if r.variants && cfg.K == k {
				checkVariants(t, src, r.q, cfg, r.x, res.Answers, fmt.Sprintf("%s k=%d", label, cfg.K), c.shards, tally)
			}
			if nearTies { // summation order decided it: no prefix to hold
				tally.nearTies.Add(1)
				prev = nil
				continue
			}
			if prev != nil && !slices.EqualFunc(prev, res.Answers[:len(prev)], func(a, b Answer) bool { return a.Root == b.Root }) {
				t.Fatalf("%s: top-%d %v is no prefix of top-%d %v", label, k, prev, cfg.K, res.Answers)
			}
			prev = res.Answers
		}
	}
	return created
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

// checkVariants holds the other ways to run cfg to its answers want,
// roots, bindings and scores: a scan of every root candidate whatever
// postings the engine could stream from, and the engine in p root
// ranges (NewShardRun) for each p of shards, over one shared top-k set,
// driven first to last and then last to first. A shard run
// materialises no root another did, attributes no more prunes to the
// remote threshold than it made, and records nothing in the engine's
// totals.
func checkVariants(t *testing.T, src index.Source, q *pattern.Query, cfg Config, x Experiment, want []Answer, label string, shards []int, tally *agreeTally) {
	t.Helper()
	res, err := scanning(t, src, q, cfg, x).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(res.Answers, want) {
		t.Fatalf("%s: a forced scan answers %v\nwant %v", label, res.Answers, want)
	}
	tallied := &rootTally{Scorer: cfg.Scorer}
	cfg.Scorer = tallied
	eng, err := NewExperiment(src, q, cfg, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range shards {
		for _, first := range []int{0, p - 1} {
			tallied.times = map[int32]int{}
			shared := NewSharedTopK(cfg.K, 0)
			for i := 0; i < p; i++ {
				s := max(i-first, first-i) // first to last, or last to first
				pr, err := eng.NewShardRun(context.Background(), shared, s, p)
				if err != nil {
					t.Fatal(err)
				}
				pr.Drive()
				st, err := pr.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if st.PrunedRemote > st.Pruned {
					t.Fatalf("%s, shard %d of %d: %d of %d prunes attributed to the remote threshold", label, s, p, st.PrunedRemote, st.Pruned)
				}
			}
			if got := shared.Answers(); !sameAnswers(got, want) {
				t.Fatalf("%s in %d shards from shard %d: answers %v\nwant %v", label, p, first, got, want)
			}
			for ord, n := range tallied.times {
				if n > 1 {
					t.Fatalf("%s in %d shards from shard %d: root %d materialised %d times", label, p, first, ord, n)
				}
			}
			tally.shardRuns.Add(1)
			if p > len(eng.roots) {
				tally.wideShardRuns.Add(1)
			}
		}
	}
	if tot := eng.Totals(); tot.Runs != 0 {
		t.Fatalf("%s: shard runs recorded %d runs in the engine's totals", label, tot.Runs)
	}
}

// TestEngineAgreesWithNaive is the engine's correctness property: every
// algorithm, routing strategy, queue discipline, relaxation, static
// order, k, plan, backing and root server (per-root bounds, or the
// figures' Experiment.PaperRoots) answers naive's top-k — score descending,
// root ascending, ties at the boundary included — on pinned documents
// and on random ones, with the arena poisoned so that a match used past
// its release would surface; and so do a forced scan and shard runs
// (checkVariants). Each pinned pattern and relaxation is a subtest
// (…/shop/q2/leaf), and the random trials are one more; so is each
// metamorphic relation.
func TestEngineAgreesWithNaive(t *testing.T) {
	arenaPoison.Store(true)
	defer arenaPoison.Store(false)
	dir := t.TempDir()
	pinned := pinnedCases(t)
	trials := 150
	if testing.Short() {
		trials = 40
	}
	var random []agreeCase
	for trial := 0; trial < trials; trial++ {
		random = append(random, randomCase(rand.New(rand.NewSource(int64(trial))), fmt.Sprintf("trial %d", trial)))
	}
	for _, c := range slices.Concat(random, pinned) {
		c.doc.Columns() // cached on first use: fill it before subtests share the document
	}
	// The subtests, seconds of CPU together, run GOMAXPROCS at a time.
	var tally agreeTally
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	run := func(name string, check func(t *testing.T)) {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			t.Run(name, check)
		}()
	}
	run("random", func(t *testing.T) {
		for _, c := range random {
			checkAgainstNaive(t, dir, c, &tally)
			tally.trials.Add(1)
		}
	})
	for _, c := range pinned {
		run(c.name, func(t *testing.T) { checkAgainstNaive(t, dir, c, &tally) })
	}
	for _, rel := range relations {
		run(rel.name, func(t *testing.T) {
			held := 0
			for i, c := range slices.Concat(random, pinned) {
				ix := index.Build(c.doc)
				r := rand.New(rand.NewSource(int64(i)))
				cfg := Config{K: c.ks[0], Algorithm: Algorithm(r.Intn(4)), Routing: allRoutings[r.Intn(len(allRoutings))], Queue: allQueues[r.Intn(len(allQueues))], Scorer: score.NewTFIDF(ix, c.q, score.Sparse)}
				held += rel.check(t, ix, c, cfg)
			}
			t.Logf("held on %d answer sets", held)
			if held == 0 {
				t.Fatal("no answer to hold: the relation was not exercised")
			}
		})
	}
	wg.Wait()
	runs, nearTies := tally.runs.Load(), tally.nearTies.Load()
	streamed, leafDeleted, wide := tally.streamed.Load(), tally.streamedLeafDeleted.Load(), tally.wideShardRuns.Load()
	paper := tally.paperRoots.Load()
	t.Logf("%d runs, %d within the near-tie allowance, %d on the paper's root server; %d streamed roots from postings, %d of them under leaf deletion; %d shard evaluations, %d with more shards than roots",
		runs, nearTies, paper, streamed, leafDeleted, tally.shardRuns.Load(), wide)
	if nearTies*1000 >= runs {
		t.Fatalf("%d of %d runs needed the near-tie allowance", nearTies, runs)
	}
	// Guards against a vacuous pass, where the random trials ran: a run
	// filtered to one pinned subtest need not stream or shard widely.
	if tally.trials.Load() > 0 && (streamed == 0 || leafDeleted == 0 || wide == 0 || paper == 0 || paper == runs) {
		t.Fatal("the property was not exercised: no run streamed from postings, none under leaf deletion, no shard run had more shards than roots, or every run or none was on the paper's root server")
	}
}

// relations are metamorphic relations of the engine's answers. Each
// checks a case under cfg, an algorithm, routing and queue drawn per
// case at the case's first k, and returns the answer sets it held.
var relations = []struct {
	name  string
	check func(t *testing.T, ix *index.Index, c agreeCase, cfg Config) int
}{
	// Relaxing only adds matches: every root an exact run answers, each
	// relaxation family answers too, with no lower score.
	{"relaxation-keeps-exact", func(t *testing.T, ix *index.Index, c agreeCase, cfg Config) (held int) {
		cfg.K = everyRoot
		exact := runWith(t, ix, c.q, cfg).Answers
		for _, family := range []relax.Relaxation{relax.EdgeGeneralization, relax.LeafDeletion, relax.SubtreePromotion} {
			cfg.Relax = family
			relaxed := map[int32]float64{}
			for _, a := range runWith(t, ix, c.q, cfg).Answers {
				relaxed[a.Root] = a.Score
			}
			for _, a := range exact {
				if s, ok := relaxed[a.Root]; !ok || s < a.Score-nearTie {
					t.Fatalf("%s q=%s %v relax=%v: exact answer root %d scoring %v relaxes to %v, %v", c.name, c.q, cfg.Algorithm, family, a.Root, a.Score, s, ok)
				}
			}
			held += len(exact)
		}
		return held
	}},
	// A query and its canonical form (predicates sorted, nodes
	// renumbered) share a CanonicalKey and answer the same roots with the
	// same scores, each under its own scorer.
	{"canonical", func(t *testing.T, ix *index.Index, c agreeCase, cfg Config) (held int) {
		cq := pattern.Canonicalize(c.q)
		if pattern.CanonicalKey(cq) != pattern.CanonicalKey(c.q) {
			t.Fatalf("%s: %s canonicalizes to %s, another key", c.name, c.q, cq)
		}
		ccfg := cfg
		ccfg.Scorer = score.NewTFIDF(ix, cq, score.Sparse)
		for _, cfg.K = range []int{cfg.K, everyRoot} {
			for _, m := range relaxModes {
				cfg.Relax, ccfg.Relax, ccfg.K = m.mode, m.mode, cfg.K
				want, got := runWith(t, ix, c.q, cfg).Answers, runWith(t, ix, cq, ccfg).Answers
				if !slices.EqualFunc(got, want, func(a, b Answer) bool { return a.Root == b.Root && math.Abs(a.Score-b.Score) <= nearTie }) {
					t.Fatalf("%s k=%d %v relax=%v: %s answers %v, its canonical form %s %v", c.name, cfg.K, cfg.Algorithm, m.mode, c.q, want, cq, got)
				}
				held++
			}
		}
		return held
	}},
	// Pruning changes the work, never the answers: each pruning
	// algorithm answers what LockStep-NoPrun, which never calls
	// prunable, answers for the same case — roots and bindings, scores
	// within 1e-9 — at the case's k and with every root answering.
	{"noprune-bindings", func(t *testing.T, ix *index.Index, c agreeCase, cfg Config) (held int) {
		for _, cfg.K = range []int{cfg.K, everyRoot} {
			for _, m := range relaxModes {
				cfg.Relax = m.mode
				ref := cfg
				ref.Algorithm = LockStepNoPrune
				want := runWith(t, ix, c.q, ref).Answers
				for _, cfg.Algorithm = range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep} {
					if got := runWith(t, ix, c.q, cfg).Answers; !sameAnswers(got, want) {
						t.Fatalf("%s q=%s k=%d %v/%v/%v relax=%v: answers %v\nLockStep-NoPrun %v", c.name, c.q, cfg.K, cfg.Algorithm, cfg.Routing, cfg.Queue, m.mode, got, want)
					}
					held++
				}
			}
		}
		return held
	}},
	// A threshold seeded (Experiment.Threshold) strictly below the k-th
	// score prunes nothing that could answer: the answers stay the
	// unseeded run's.
	{"seeded-threshold", func(t *testing.T, ix *index.Index, c agreeCase, cfg Config) (held int) {
		for _, m := range relaxModes {
			cfg.Relax = m.mode
			want := runWith(t, ix, c.q, cfg).Answers
			if len(want) == 0 {
				continue
			}
			kth := want[len(want)-1].Score
			for _, seed := range []float64{kth / 2, kth - 1e-6} {
				if seed <= 0 {
					continue
				}
				if got := runExperiment(t, ix, c.q, cfg, Experiment{Threshold: seed}).Answers; !sameAnswers(got, want) {
					t.Fatalf("%s q=%s k=%d %v relax=%v: seeded at %v below the k-th score %v, answers %v\nwant %v", c.name, c.q, cfg.K, cfg.Algorithm, m.mode, seed, kth, got, want)
				}
				held++
			}
		}
		return held
	}},
}

// FuzzEngineVsNaive is TestEngineAgreesWithNaive's random trial as a
// fuzz target: the input seeds the generator.
func FuzzEngineVsNaive(f *testing.F) {
	arenaPoison.Store(true)
	defer arenaPoison.Store(false)
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstNaive(t, t.TempDir(), randomCase(rand.New(rand.NewSource(seed)), fmt.Sprint("seed ", seed)), &agreeTally{})
	})
}
