package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// rootLog is a Scorer that logs every root the runs of one evaluation
// materialise — the root's contribution is asked once per root — from
// any number of goroutines.
type rootLog struct {
	score.Scorer
	mu    sync.Mutex
	roots []int32
}

func (l *rootLog) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		l.mu.Lock()
		l.roots = append(l.roots, ord)
		l.mu.Unlock()
	}
	return l.Scorer.Contribution(id, v, ord)
}

// noPrune is the configuration the partition tests evaluate under:
// LockStep-NoPrune materialises every root its cursor streams, so a
// run's roots are the roots of its range that can answer exactly
// (answerable), or, on the paper's root server, its whole root range.
func noPrune(c *shard.Corpus, q *pattern.Query, log *rootLog) core.Config {
	log.Scorer = score.NewTFIDF(c, q, score.Sparse)
	return core.Config{K: 1, Algorithm: core.LockStepNoPrune, Scorer: log}
}

// shardRuns evaluates q over c through Engines, with a trace collecting
// each shard run's summary, and returns the roots the evaluation
// materialised (sorted), the shard summaries in shard order and the
// answers.
func shardRuns(t *testing.T, c *shard.Corpus, q *pattern.Query, cfg core.Config, log *rootLog) ([]int32, []obs.RunSummary, []core.Answer) {
	t.Helper()
	var trace obs.Collector
	cfg.Trace = &trace
	eng, err := c.NewEngines(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]obs.RunSummary, c.Shards())
	seen := 0
	for _, ev := range trace.Events() {
		if ev.Kind == "shard_run" {
			sums[ev.Shard] = *ev.Summary
			seen++
		}
	}
	if seen != c.Shards() {
		t.Fatalf("%d shard runs reported, want %d", seen, c.Shards())
	}
	var roots []int32
	if log != nil {
		roots = slices.Clone(log.roots)
		slices.Sort(roots)
	}
	return roots, sums, res.Answers
}

// answerable returns the candidates among cands whose subtree holds, for
// each non-root node of q, a node with its tag and value test at the
// depth below the candidate q's path from the root prescribes — the
// roots an exact run's cursor keeps — found by walking the document
// columns, not the postings.
func answerable(cols *xmltree.Columns, q *pattern.Query, cands []uint32) []int32 {
	var out []int32
	for _, n := range cands {
		found := uint64(1)
		for d := int32(n) + 1; d <= cols.End(int32(n)); d++ {
			for id := 1; id < q.Size(); id++ {
				qn := q.Nodes[id]
				exact := relax.ComposePath(q, 0, id).DepthHoldsExact(int(cols.Level[d] - cols.Level[n]))
				if exact && cols.Tag(d) == qn.Tag && index.Test(qn.ValueOp, qn.Value).Matches(cols.Value(d)) {
					found |= 1 << uint(id)
				}
			}
		}
		if found == 1<<uint(q.Size())-1 {
			out = append(out, int32(n))
		}
	}
	return out
}

// rootRanges runs each of c's shards of q alone, in shard order, on one
// engine over c built with x, and returns the roots each materialised.
// With x.PaperRoots the cursor streams every candidate of its range;
// without, only the answerable ones.
func rootRanges(t *testing.T, c *shard.Corpus, q *pattern.Query, x core.Experiment) [][]int32 {
	t.Helper()
	var log rootLog
	eng, err := core.NewExperiment(c, q, noPrune(c, q, &log), x)
	if err != nil {
		t.Fatal(err)
	}
	shared := core.NewSharedTopK(1, 0)
	out := make([][]int32, c.Shards())
	for s := range out {
		log.roots = nil
		pr, err := eng.NewShardRun(context.Background(), shared, s, c.Shards())
		if err != nil {
			t.Fatal(err)
		}
		pr.Drive()
		if _, err := pr.Finish(); err != nil {
			t.Fatal(err)
		}
		out[s] = log.roots
	}
	return out
}

// checkAnswerable requires each shard run of an engine built by core.New
// to offer exactly the answerable roots of its slice of cands, and
// returns those per shard.
func checkAnswerable(t *testing.T, c *shard.Corpus, q *pattern.Query, cands []uint32) [][]int32 {
	t.Helper()
	n, p := len(cands), c.Shards()
	wants := make([][]int32, p)
	for s, roots := range rootRanges(t, c, q, core.Experiment{}) {
		wants[s] = answerable(c.Cols(), q, cands[s*n/p:(s+1)*n/p])
		if !slices.Equal(roots, wants[s]) {
			t.Fatalf("%s: shard %d of %d offered %v, want the answerable roots of slice [%d, %d) of the candidates: %v", q, s, p, roots, s*n/p, (s+1)*n/p, wants[s])
		}
	}
	return wants
}

// TestSplitPartitionInvariants checks the structural contract of a
// p-way Split: its shards are p contiguous, equal-count ranges of a
// query's root candidates in document order. Streaming every candidate
// (the paper's root server), every candidate is offered by exactly one
// shard run, shard s's roots all precede shard s+1's, and shard s offers
// the s-th slice (sizes differ by at most one). With per-root bounds
// shard s offers the answerable roots of its slice, and an evaluation
// through Engines materialises those and reports their per-shard
// counts. The random documents nest the root tag, so cuts fall inside a
// root.
func TestSplitPartitionInvariants(t *testing.T) {
	docs := map[string]*xmltree.Document{"xmark": xmarkDoc(t, 40)}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		docs[fmt.Sprintf("random%d", i)] = randomDoc(r)
	}
	offered := 0 // guards against a vacuous pass: some shard must offer an answerable root
	for name, doc := range docs {
		query := "//a[./b]"
		if name == "xmark" {
			query = "//listitem[./text]"
		}
		q := pattern.MustParse(query)
		for _, p := range []int{1, 2, 3, 8, 64} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				c, err := shard.Split(doc, p)
				if err != nil {
					t.Fatal(err)
				}
				if c.Shards() != p {
					t.Fatalf("shards = %d, want %d", c.Shards(), p)
				}
				cands := c.Ords(q.Root().Tag, index.ValueTest{})
				n := len(cands)
				if n == 0 {
					t.Fatalf("%s has no root candidate", query)
				}
				var union []int32
				for s, roots := range rootRanges(t, c, q, core.Experiment{PaperRoots: true}) {
					want := make([]int32, 0, n)
					for _, o := range cands[s*n/p : (s+1)*n/p] {
						want = append(want, int32(o))
					}
					if !slices.Equal(roots, want) {
						t.Fatalf("shard %d of %d offered %v, want slice [%d, %d) of the candidates: %v", s, p, roots, s*n/p, (s+1)*n/p, want)
					}
					union = append(union, roots...)
				}
				if len(union) != n {
					t.Fatalf("shards offered %d roots, %d candidates", len(union), n)
				}

				wants := checkAnswerable(t, c, q, cands)
				var log rootLog
				roots, sums, _ := shardRuns(t, c, q, noPrune(c, q, &log), &log)
				if all := slices.Concat(wants...); !slices.Equal(roots, all) {
					t.Fatalf("Engines materialised %v, the shard runs %v", roots, all)
				}
				offered += len(roots)
				for s, sum := range sums {
					if want := int64(len(wants[s])); sum.Roots != want {
						t.Fatalf("Engines' shard %d of %d counted %d roots, want %d", s, p, sum.Roots, want)
					}
				}
			})
		}
	}
	if offered == 0 {
		t.Fatal("no shard offered an answerable root")
	}
}

// TestSplitBalance asserts the shards are balanced, not just a valid
// partition: on an XMark document, for every shard count the pinned
// benchmark sweeps, every shard's run offers within one root of every
// other's — on a root tag that nests (listitem) as on one that does not
// — when it streams every candidate (the paper's root server); with
// per-root bounds each offers the answerable roots of its range.
func TestSplitBalance(t *testing.T) {
	doc := xmarkDoc(t, 200)
	for _, p := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c, err := shard.Split(doc, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, query := range []string{"//item[./description/parlist]", "//listitem[./text]"} {
				q := pattern.MustParse(query)
				lo, hi := -1, -1
				for _, roots := range rootRanges(t, c, q, core.Experiment{PaperRoots: true}) {
					if lo < 0 || len(roots) < lo {
						lo = len(roots)
					}
					hi = max(hi, len(roots))
				}
				if lo == 0 || hi-lo > 1 {
					t.Fatalf("%s: shards offer %d to %d roots, want equal counts", query, lo, hi)
				}
				checkAnswerable(t, c, q, c.Ords(q.Root().Tag, index.ValueTest{}))
			}
		})
	}
}

// TestSplitDeterministic asserts an evaluation in shards is a pure
// function of the document, the query and p: two Splits, each
// evaluated through Engines, agree shard for shard on every counter a
// shard's run reports and on the answers.
func TestSplitDeterministic(t *testing.T) {
	doc := xmarkDoc(t, 120)
	q := pattern.MustParse("//item[./description/parlist and ./mailbox/mail/text]")
	for _, p := range []int{2, 4, 8} {
		var sums [2][]obs.RunSummary
		var answers [2][]core.Answer
		for i := range sums {
			c, err := shard.Split(doc, p)
			if err != nil {
				t.Fatal(err)
			}
			var log rootLog
			_, sums[i], answers[i] = shardRuns(t, c, q, noPrune(c, q, &log), nil)
		}
		for s := range sums[0] {
			a, b := sums[0][s], sums[1][s]
			a.DurationUS, b.DurationUS = 0, 0
			if a != b {
				t.Fatalf("p=%d shard %d: %+v vs %+v", p, s, a, b)
			}
		}
		if len(answers[0]) != len(answers[1]) {
			t.Fatalf("p=%d: %d vs %d answers", p, len(answers[0]), len(answers[1]))
		}
		for i := range answers[0] {
			if answers[0][i].Root != answers[1][i].Root || answers[0][i].Score != answers[1][i].Score {
				t.Fatalf("p=%d answer %d: %+v vs %+v", p, i, answers[0][i], answers[1][i])
			}
		}
	}
}

// TestSplitSingleShardKeepsForestWhole ensures p=1 cuts nothing: the one
// shard's run offers every root, in the order, and does the work and
// finds the answers of the unsharded engine's run.
func TestSplitSingleShardKeepsForestWhole(t *testing.T) {
	doc := xmarkDoc(t, 20)
	c, err := shard.Split(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"//item[./description/parlist]", "//item[./location = 'United States' and ./quantity = '1']"} {
		q := pattern.MustParse(query)
		var whole, one rootLog
		eng, err := core.New(c, q, noPrune(c, q, &whole))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, sums, answers := shardRuns(t, c, q, noPrune(c, q, &one), &one)
		if !slices.Equal(one.roots, whole.roots) {
			t.Fatalf("%s: the one shard offered %v, the whole run %v", query, one.roots, whole.roots)
		}
		if st := sums[0]; st.Roots != res.Stats.Roots || st.ServerOps != res.Stats.ServerOps || st.JoinComparisons != res.Stats.JoinComparisons {
			t.Fatalf("%s: the one shard did %+v, the whole run %+v", query, st, res.Stats)
		}
		if len(answers) != len(res.Answers) {
			t.Fatalf("%s: %d answers, whole %d", query, len(answers), len(res.Answers))
		}
		for i := range answers {
			if answers[i].Root != res.Answers[i].Root || answers[i].Score != res.Answers[i].Score {
				t.Fatalf("%s answer %d: %+v, whole %+v", query, i, answers[i], res.Answers[i])
			}
		}
	}
}

// TestSplitEmptyDocument: an empty document splits, holds no postings,
// and a sharded evaluation over it finds nothing in any shard.
func TestSplitEmptyDocument(t *testing.T) {
	doc := xmltree.NewBuilder().Doc()
	c, err := shard.Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes("anything")); got != 0 {
		t.Fatalf("Nodes on empty = %d", got)
	}
	q := pattern.MustParse("//item[./name]")
	var log rootLog
	roots, sums, answers := shardRuns(t, c, q, noPrune(c, q, &log), &log)
	if len(roots) != 0 || len(answers) != 0 {
		t.Fatalf("empty document: %d roots, %d answers", len(roots), len(answers))
	}
	for s, sum := range sums {
		if sum.Roots != 0 {
			t.Fatalf("shard %d counted %d roots", s, sum.Roots)
		}
	}
}
