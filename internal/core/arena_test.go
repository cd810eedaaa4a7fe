package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// TestArenaGetReleaseRecycles pins the freelist mechanics: a released
// match is handed out again by the next get, fully cleared, with its
// bindings slice retained (no fresh allocation) but unbound.
// Scores compare exactly: recycled fields must be exactly zero.
func TestArenaGetReleaseRecycles(t *testing.T) {
	a := newMatchArena(3)
	m := a.get()
	if len(m.bindings) != 3 {
		t.Fatalf("bindings len = %d, want 3", len(m.bindings))
	}
	m.bindings[1] = 4
	m.visited, m.missing = 5, 2
	m.score, m.maxFinal, m.seq = 1.5, 2.5, 42
	a.release(m)
	m2 := a.get()
	if m2 != m {
		t.Fatal("released match was not recycled by the next get")
	}
	for i, b := range m2.bindings {
		if b != -1 {
			t.Fatalf("recycled bindings[%d] = %v, want -1", i, b)
		}
	}
	if m2.visited != 0 || m2.missing != 0 || m2.score != 0 || m2.maxFinal != 0 || m2.seq != 0 {
		t.Fatalf("recycled match not cleared: %+v", m2)
	}
	// Distinct lives never alias.
	m3 := a.get()
	if m3 == m2 {
		t.Fatal("two live matches alias")
	}
	if &m3.bindings[0] == &m2.bindings[0] {
		t.Fatal("two live matches share a bindings slice")
	}
	a.release(nil) // nil-safe
}

// TestArenaConcurrentRoundTrip exercises the locked arena, as a
// Whirlpool-M run uses it, under -race: goroutines get, populate, and
// release matches through its one freelist; every handed-out match must
// be exclusively owned.
func TestArenaConcurrentRoundTrip(t *testing.T) {
	a := newMatchArena(4)
	a.locked = true
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			n := int32(g)
			ok := true
			for i := 0; i < 500; i++ {
				m := a.get()
				m.bindings[0] = n
				m.seq = int64(g)
				if m.bindings[0] != n || m.seq != int64(g) {
					ok = false
				}
				a.release(m)
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("a match was mutated while owned")
		}
	}
}

// TestMatchIsOneCacheLine pins the match's layout: its bindings header
// and five 8-byte fields fill exactly one 64-byte cache line, so a slab
// of arenaChunk matches is 16 KB and no match straddles two lines.
func TestMatchIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(match{}); n != 64 {
		t.Fatalf("sizeof(match) = %d bytes, want 64", n)
	}
}

// TestIdleStateServesEitherAlgorithm: idle states are keyed by binding
// width alone, whether the arena locks being a mode Engine.open sets
// per run. A state a Whirlpool-M run parked serves the next Whirlpool-S
// run of the same width, unlocked, and the other way round. Across that
// reuse a warm Whirlpool-S run still allocates only its answer copy
// (TestRunReuseAllocs' 3; with hundreds of server operations a run, an
// allocating process would break it too) and a warm Whirlpool-M run
// stays within TestWhirlpoolMAllocsPerRun's 160.
func TestIdleStateServesEitherAlgorithm(t *testing.T) {
	ix, q, s := xmarkEnv(t, 200, "//item[./description/parlist and ./mailbox/mail/text]")
	var eng [2]*Engine // Whirlpool-S, Whirlpool-M
	for i, alg := range []Algorithm{WhirlpoolS, WhirlpoolM} {
		var err error
		if eng[i], err = New(ix, q, Config{K: 15, Relax: relax.All, Algorithm: alg, Routing: RoutingMinAlive, Scorer: s}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun counts
	for i, bound := range []uint64{3, 160} {
		from, to := eng[1-i], eng[i]
		if _, err := from.Run(); err != nil {
			t.Fatal(err)
		}
		idleStates.mu.Lock()
		parked := idleStates.list[len(idleStates.list)-1]
		idleStates.mu.Unlock()
		p := to.open(context.Background(), nil, 0, 0, len(to.roots))
		if p != parked || p.arena.locked != (i == 1) {
			t.Fatalf("%v after %v: parked state reused %v, arena.locked %v", to.cfg.Algorithm, from.cfg.Algorithm, p == parked, p.arena.locked)
		}
		p.Drive()
		p.Finish()
		const pairs = 20
		var allocs uint64
		for n := 0; n < pairs; n++ {
			from.Run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			to.Run()
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
		if allocs/pairs > bound {
			t.Fatalf("warm %v run after %v allocates %d objects, want at most %d", to.cfg.Algorithm, from.cfg.Algorithm, allocs/pairs, bound)
		}
	}
}

// TestTopKDoesNotRetainReleasedMatch pins the copy-out contract of
// topkSet.offer: entries own their bindings, so poisoning the offered
// match after release must not corrupt the recorded answer.
// Scores compare exactly: copy-out contract asserts the exact recorded score.
func TestTopKDoesNotRetainReleasedMatch(t *testing.T) {
	arenaPoison.Store(true)
	defer arenaPoison.Store(false)
	a := newMatchArena(2)
	tk := newTopkSet(1, 0, false)
	root, leaf := int32(7), int32(8)
	m := a.get()
	m.bindings[0], m.bindings[1] = root, leaf
	m.visited = 3
	m.score = 0.9
	m.seq = 1
	tk.offer(m, 0)
	a.release(m) // unbinds the bindings, poisons the score to NaN
	ans := tk.answers()
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if ans[0].Root != root || ans[0].Bindings[1] != leaf || ans[0].Score != 0.9 {
		t.Fatalf("answer corrupted by release: %+v", ans[0])
	}
}

// processStep is the steady state of the server operation: one match
// processed at every leaf server of the query, every extension
// released. It returns warmed up — slab carved, scratch grown, lazy
// index fills done.
func processStep(tb testing.TB, xpath string, mode relax.Relaxation) func() {
	doc, err := xmltree.ParseString(booksXML)
	if err != nil {
		tb.Fatal(err)
	}
	ix := index.Build(doc)
	q := pattern.MustParse(xpath)
	s := score.NewTFIDF(ix, q, score.Sparse)
	e, err := New(ix, q, Config{K: 2, Relax: mode, Algorithm: WhirlpoolS, Routing: RoutingMinAlive, Scorer: s})
	if err != nil {
		tb.Fatal(err)
	}
	shared := NewSharedTopK(2, 0)
	r := &run{
		Engine: e,
		topk:   shared.set,
		arena:  newMatchArena(q.Size()),
		ctx:    context.Background(),
	}
	r.lastThreshold.Store(math.Float64bits(math.Inf(-1)))
	m := r.arena.get()
	m.bindings[0] = ix.Nodes("book")[0].Ord
	m.visited = 1
	m.seq = r.nextSeq()
	sc := &Scratch{}
	step := func() {
		for sid := 1; sid < q.Size(); sid++ {
			for _, x := range r.process(m, sid, sc) {
				r.release(x)
			}
		}
	}
	step()
	return step
}

// TestProcessAllocs is the zero-allocation steady state of the server
// operation: once the scratch buffers have grown and the arena freelist
// is primed, process + release must not allocate at all — down either
// axis, through every kind of value test, exact or relaxed.
func TestProcessAllocs(t *testing.T) {
	for _, query := range []struct{ name, xpath string }{
		{"child", "/book[./title and ./info/isbn]"},
		{"descendant", "//book[./title and .//isbn]"},
		{"equal-and-numeric", "/book[./title = 'wodehouse' and ./price < 50]"},
		{"contains-and-not-equal", "/book[./title contains 'wode' and ./info/isbn != '0']"},
		// A (tag, value) key over 32 bytes: once a string concatenation,
		// heap-allocated on every relaxed (descendant-axis) probe.
		{"long-equality", "/book[./title = 'wodehouse, the collected short stories' and ./price < 50]"},
	} {
		for _, mode := range []struct {
			name  string
			relax relax.Relaxation
		}{{"exact", relax.None}, {"relaxed", relax.All}} {
			t.Run(query.name+"/"+mode.name, func(t *testing.T) {
				if allocs := testing.AllocsPerRun(100, processStep(t, query.xpath, mode.relax)); allocs != 0 {
					t.Fatalf("process allocates %.1f objects/op in steady state, want 0", allocs)
				}
			})
		}
	}
}

func BenchmarkProcessAllocs(b *testing.B) {
	step := processStep(b, "/book[./title and ./info/isbn]", relax.All)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
