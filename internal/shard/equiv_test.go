package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// randomDoc builds a random forest with a few tags, so root ranges fall
// over uneven subtree shapes, deep chains and nested roots.
func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	doc := xmltree.NewDocument()
	roots := r.Intn(3) + 1
	for i := 0; i < roots; i++ {
		root := doc.AddRoot("r")
		var grow func(n *xmltree.Node, depth int)
		grow = func(n *xmltree.Node, depth int) {
			if depth > 5 {
				return
			}
			kids := r.Intn(4)
			for j := 0; j < kids; j++ {
				val := ""
				if r.Intn(3) == 0 {
					val = fmt.Sprintf("v%d", r.Intn(3))
				}
				c := doc.AddChild(n, tags[r.Intn(len(tags))], val)
				grow(c, depth+1)
			}
		}
		grow(root, 1)
	}
	doc.Renumber()
	return doc
}

func xmarkDoc(t *testing.T, items int) *xmltree.Document {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSplitErrors: no document, or fewer than one shard.
func TestSplitErrors(t *testing.T) {
	if _, err := shard.Split(nil, 2); err == nil {
		t.Fatal("nil document accepted")
	}
	if _, err := shard.Split(xmarkDoc(t, 5), 0); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestShardedTopKEquivalence is the sharding safety property: a sharded
// evaluation must return the same answers as the single-engine baseline
// across strategies {Whirlpool-S, Whirlpool-M} × relaxations {None, All}
// × shard counts {1, 2, 8}. Both sides share one whole-corpus scorer and
// static routing, so every match accumulates contributions in the same
// order and scores are bit-comparable. Every top-k set keeps a match
// tying the k-th score while its root precedes the k-th root, so both
// sides answer the top-k of score descending, root ascending: the same
// roots, bindings and order, ties at the boundary included.
func TestShardedTopKEquivalence(t *testing.T) {
	doc := xmarkDoc(t, 50)
	whole := index.Build(doc)
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	}
	algos := []core.Algorithm{core.WhirlpoolS, core.WhirlpoolM}
	relaxes := []relax.Relaxation{relax.None, relax.All}
	counts := []int{1, 2, 8}

	corpora := make(map[int]*shard.Corpus)
	for _, p := range counts {
		c, err := shard.Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		corpora[p] = c
	}

	for _, xpath := range queries {
		q := pattern.MustParse(xpath)
		scorer := score.NewTFIDF(whole, q, score.Sparse)
		for _, algo := range algos {
			for _, rel := range relaxes {
				// k=10 exercises pruning; k=4096 returns every root, so
				// no pruning can hide a divergence.
				for _, k := range []int{10, 4096} {
					cfg := core.Config{K: k, Relax: rel, Algorithm: algo, Scorer: scorer}
					baseEng, err := core.New(whole, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					base, err := baseEng.Run()
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range counts {
						name := fmt.Sprintf("%s/%v/rel=%d/k=%d/p=%d", xpath, algo, rel, k, p)
						engs, err := corpora[p].NewEngines(q, cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := engs.Run()
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, name, base, res)
						if res.Stats.PrunedRemote > res.Stats.Pruned {
							t.Fatalf("%s: PrunedRemote %d > Pruned %d", name, res.Stats.PrunedRemote, res.Stats.Pruned)
						}
					}
				}
			}
		}
	}
}

// TestShardedTopKEquivalenceRandomDocs repeats the property on random
// forests, where root ranges (nested roots, empty ranges, multi-root
// forests) differ wildly from XMark's.
func TestShardedTopKEquivalenceRandomDocs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	queries := []string{
		"//r[./a and ./b]",
		"//a[./b/c]",
		"//r[./a[./c] and ./d]",
	}
	for i := 0; i < 8; i++ {
		doc := randomDoc(r)
		whole := index.Build(doc)
		for _, xpath := range queries {
			q := pattern.MustParse(xpath)
			scorer := score.NewTFIDF(whole, q, score.Sparse)
			cfg := core.Config{K: 5, Relax: relax.All, Algorithm: core.WhirlpoolS, Scorer: scorer}
			baseEng, err := core.New(whole, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := baseEng.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 8} {
				c, err := shard.Split(doc, p)
				if err != nil {
					t.Fatal(err)
				}
				engs, err := c.NewEngines(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := engs.Run()
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, fmt.Sprintf("doc%d/%s/p=%d", i, xpath, p), base, res)
			}
		}
	}
}

// TestShardedValuedEquivalence: queries whose roots stream from a
// posting list climb from the postings past their range's first root
// and stop at the next range's, so every root is still offered exactly
// once. Five valued queries × four relaxation modes × k ∈ {1, 3, 15,
// 75} × every algorithm, at 2, 3, 8 and 64 shards (64 is more than
// some queries have roots), must score like the unsharded engine.
func TestShardedValuedEquivalence(t *testing.T) {
	doc := xmarkDoc(t, 120)
	whole := index.Build(doc)
	first := func(tag string) string {
		for _, n := range doc.Nodes {
			if n.Tag == tag && n.Value != "" {
				return n.Value
			}
		}
		t.Fatalf("no valued %s", tag)
		return ""
	}
	queries := []string{
		"//item[./location = 'United States' and ./quantity = '1']",
		"//mail[./from and .//keyword = 'officer']",
		fmt.Sprintf("//item[./quantity = '1' and ./mailbox/mail/text/keyword = '%s']", first("keyword")),
		fmt.Sprintf("//item[./location = '%s' and ./payment = '%s' and .//keyword]", first("location"), first("payment")),
		fmt.Sprintf("//mail[./from = '%s' and ./to]", first("from")),
	}
	modes := []relax.Relaxation{relax.None, relax.EdgeGeneralization, relax.LeafDeletion, relax.All}
	algos := []core.Algorithm{core.WhirlpoolS, core.WhirlpoolM, core.LockStep, core.LockStepNoPrune}
	streamed := 0
	for _, xpath := range queries {
		q := pattern.MustParse(xpath)
		scorer := score.NewTFIDF(whole, q, score.Sparse)
		for _, mode := range modes {
			for _, k := range []int{1, 3, 15, 75} {
				for _, algo := range algos {
					cfg := core.Config{K: k, Relax: mode, Algorithm: algo, Scorer: scorer}
					baseEng, err := core.New(whole, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					base, err := baseEng.Run()
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range []int{2, 3, 8, 64} {
						c, err := shard.New(whole, p)
						if err != nil {
							t.Fatal(err)
						}
						engs, err := c.NewEngines(q, cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := engs.Run()
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, fmt.Sprintf("%s/relax=%v/k=%d/%v/p=%d", xpath, mode, k, algo, p), base, res)
						if engs.RootVia() != "scan" {
							streamed++
						}
					}
				}
			}
		}
	}
	if streamed == 0 {
		t.Fatal("no query streamed its roots from postings: the climb was not exercised")
	}
}

// TestShardedPoolEquivalence is the shard pool's safety property: the
// pooled executor of every stepped algorithm (Whirlpool-S, LockStep,
// LockStep-NoPrun) must return the same answers as the single-engine
// baseline across shard counts {1, 2, 8} × GOMAXPROCS {1, 4, 8}, which
// together size the pool at 1, 2, 4 or 8 workers, each driving the
// shards it claims while the others offer into the same top-k set.
// Arena poison is on for the whole matrix, so a match touched after its
// release — on the unlocked freelist a claimed shard's run now gets —
// surfaces as NaN scores or nil bindings, not as silently stale data.
// Run under -race this doubles as the memory-model check for the shared
// set and for the claim that hands each shard to exactly one worker.
func TestShardedPoolEquivalence(t *testing.T) {
	core.SetArenaPoisonForTest(true)
	defer core.SetArenaPoisonForTest(false)
	oldGMP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldGMP)

	doc := xmarkDoc(t, 50)
	whole := index.Build(doc)
	queries := []string{
		"//item[./description/parlist]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
	}
	counts := []int{1, 2, 8}
	corpora := make(map[int]*shard.Corpus)
	for _, p := range counts {
		c, err := shard.Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		corpora[p] = c
	}

	for _, xpath := range queries {
		q := pattern.MustParse(xpath)
		scorer := score.NewTFIDF(whole, q, score.Sparse)
		for _, c := range []struct {
			k   int
			alg core.Algorithm
		}{{10, core.WhirlpoolS}, {4096, core.WhirlpoolS}, {10, core.LockStep}, {10, core.LockStepNoPrune}} {
			k := c.k
			cfg := core.Config{K: k, Relax: relax.All, Algorithm: c.alg, Scorer: scorer}
			baseEng, err := core.New(whole, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := baseEng.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range counts {
				for _, gmp := range []int{1, 4, 8} {
					name := fmt.Sprintf("%s/%v/k=%d/p=%d/gmp=%d", xpath, c.alg, k, p, gmp)
					engs, err := corpora[p].NewEngines(q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					runtime.GOMAXPROCS(gmp)
					res, err := engs.Run()
					runtime.GOMAXPROCS(oldGMP)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, name, base, res)
					if bound, peak := engs.LastRunWorkers(); bound != min(gmp, engs.Shards()) || peak > bound {
						t.Fatalf("%s: workers bound=%d peak=%d, want bound min(gmp=%d, shards=%d)", name, bound, peak, gmp, engs.Shards())
					}
				}
			}
		}
	}
}

func compareResults(t *testing.T, name string, base, got *core.Result) {
	t.Helper()
	if len(got.Answers) != len(base.Answers) {
		t.Fatalf("%s: %d answers, baseline %d", name, len(got.Answers), len(base.Answers))
	}
	for i, a := range base.Answers {
		g := got.Answers[i]
		if math.Abs(g.Score-a.Score) > 1e-9 || g.Root != a.Root || !slices.Equal(g.Bindings, a.Bindings) {
			t.Fatalf("%s: answer %d is root %d %v scoring %v, baseline root %d %v scoring %v",
				name, i, g.Root, g.Bindings, g.Score, a.Root, a.Bindings, a.Score)
		}
	}
}
