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
	b := xmltree.NewBuilder()
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 5 {
			return
		}
		kids := r.Intn(4)
		for j := 0; j < kids; j++ {
			val := ""
			if r.Intn(3) == 0 {
				val = fmt.Sprintf("v%d", r.Intn(3))
			}
			b.Open(tags[r.Intn(len(tags))]).Text(val)
			grow(depth + 1)
			b.Close()
		}
	}
	roots := r.Intn(3) + 1
	for i := 0; i < roots; i++ {
		b.Root("r")
		grow(1)
	}
	return b.Doc()
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

// TestShardedPoolEquivalence is the shard pool's safety property: the
// pooled executor of every algorithm must return the same answers as the
// single-engine baseline across shard counts {1, 2, 8} × GOMAXPROCS {1,
// 4, 8}, which together size the pool at 1, 2, 4 or 8 workers, each
// driving the shards it claims while the others offer into the same
// top-k set. The valued query's roots stream from a posting list, so
// each shard's climb stops at its range's end.
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
		"//item[./location = 'United States' and ./quantity = '1']",
	}
	counts := []int{1, 2, 8}
	streamed := 0
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
		}{{10, core.WhirlpoolS}, {4096, core.WhirlpoolS}, {10, core.WhirlpoolM}, {10, core.LockStep}, {10, core.LockStepNoPrune}} {
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
					if engs.RootVia() != "scan" {
						streamed++
					}
					if bound, peak := engs.LastRunWorkers(); bound != min(gmp, engs.Shards()) || peak > bound {
						t.Fatalf("%s: workers bound=%d peak=%d, want bound min(gmp=%d, shards=%d)", name, bound, peak, gmp, engs.Shards())
					}
				}
			}
		}
	}
	if streamed == 0 {
		t.Fatal("no query streamed its roots from postings: the shards' climb was not exercised")
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
