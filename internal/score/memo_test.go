package score_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// memoDoc gives every predicate of TestMemoKey its own numbers.
const memoDoc = `
<r>
  <a><b>5</b><c>5</c><d><b>5</b><b>7</b></d></a>
  <a><b>7</b><b>5</b></a>
  <a><c>7</c></a>
  <x><b>5</b></x>
</r>`

// valued builds //root[<axis>::via/…/tag op value] by hand, so the test
// can state the legacy empty op and comparands the parser refuses.
func valued(root string, via []string, axis dewey.Axis, tag, op, value string) *pattern.Query {
	q := pattern.New(root, dewey.Descendant)
	at := 0
	for _, step := range via {
		at = q.Add(at, step, dewey.Child)
	}
	q.AddValueOp(at, tag, axis, op, value)
	return q
}

// TestMemoKey: the memo's key is exactly what the posting walk reads.
// Predicates differing from //a[./b = '5'] in one key field each get
// their own entry and the walk's own numbers — drop any field from
// memoKey and one of them is answered with the base's; spellings of one
// predicate share an entry; and a NaN comparand, which a key holding
// the parsed ValueTest could never find again, is one entry, one walk.
func TestMemoKey(t *testing.T) {
	doc, err := xmltree.ParseString(memoDoc)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	memo := score.NewMemo(ix, nil)
	type pair [2]index.PredicateStats
	ask := func(q *pattern.Query) pair {
		t.Helper()
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		id := q.Size() - 1
		exact, relaxed, ok := memo.ComponentStats(q, id)
		want := score.CollectStats(ix, nil, q)
		if !ok || exact != want.Exact[id] || relaxed != want.Relaxed[id] {
			t.Fatalf("%s: memo answered (%+v, %+v, %v), the walk (%+v, %+v)", q, exact, relaxed, ok, want.Exact[id], want.Relaxed[id])
		}
		return pair{exact, relaxed}
	}
	base := ask(valued("a", nil, dewey.Child, "b", "=", "5"))
	for i, c := range []struct {
		field string
		q     *pattern.Query
	}{
		{"root tag", valued("x", nil, dewey.Child, "b", "=", "5")},
		{"tag", valued("a", nil, dewey.Child, "c", "=", "5")},
		{"op", valued("a", nil, dewey.Child, "b", "!=", "5")},
		{"value", valued("a", nil, dewey.Child, "b", "=", "7")},
		{"MinLevels", valued("a", []string{"d"}, dewey.Child, "b", "=", "5")},
		{"Exact", valued("a", nil, dewey.Descendant, "b", "=", "5")},
	} {
		if got := ask(c.q); got == base {
			t.Fatalf("%s: %s has the base predicate's numbers %+v: the table cannot tell a shared entry", c.field, c.q, got)
		}
		if st := memo.Stats(); st.Len != i+2 || st.Walks != int64(i+2) || st.Hits != 0 {
			t.Fatalf("%s: memo %+v after %d distinct predicates", c.field, st, i+2)
		}
	}
	before := memo.Stats()
	for _, q := range []*pattern.Query{
		valued("a", nil, dewey.Child, "b", "", "5"), // the legacy spelling of = '5'
		pattern.MustParse("//a[./b = '5' and ./c]"), // the same predicate inside another query
	} {
		if exact, relaxed, _ := memo.ComponentStats(q, 1); (pair{exact, relaxed}) != base {
			t.Fatalf("%s: (%+v, %+v), want the base predicate's %+v", q, exact, relaxed, base)
		}
	}
	if st := memo.Stats(); st.Len != before.Len || st.Walks != before.Walks || st.Hits != 2 {
		t.Fatalf("two more spellings of the base predicate: memo %+v, was %+v", st, before)
	}
	nan := valued("a", nil, dewey.Child, "b", "<", "NaN")
	ask(nan)
	ask(nan)
	if st := memo.Stats(); st.Len != before.Len+1 || st.Walks != before.Walks+1 || st.Hits != 3 {
		t.Fatalf("< NaN asked twice: memo %+v, want one more entry, walk and hit than %+v", st, before)
	}
}

// TestMemoBounded: the constant in the key comes from the request, so
// 5 000 distinct ones must leave at most lru.PostingsCap entries — a
// NaN-bearing key would also show here, as entries eviction cannot
// delete — and asking a remembered predicate again allocates nothing.
func TestMemoBounded(t *testing.T) {
	doc, err := xmltree.ParseString(memoDoc)
	if err != nil {
		t.Fatal(err)
	}
	memo := score.NewMemo(index.Build(doc), nil)
	const constants = 5000
	for i := 0; i < constants; i++ {
		q := valued("a", nil, dewey.Child, "b", "<", "NaN")
		if i%2 == 0 {
			q = valued("a", nil, dewey.Child, "b", "!=", fmt.Sprintf("c%04d", i))
		}
		if _, _, ok := memo.ComponentStats(q, 1); !ok {
			t.Fatalf("%s: not answered", q)
		}
	}
	st := memo.Stats()
	if st.Len != lru.PostingsCap || st.Cap != lru.PostingsCap || st.Walks != constants/2+1 || st.Evictions != st.Walks-int64(st.Len) {
		t.Fatalf("memo %+v after %d asks, want %d entries from %d walks", st, constants, lru.PostingsCap, constants/2+1)
	}
	q := valued("a", nil, dewey.Child, "b", "=", "5")
	memo.ComponentStats(q, 1)
	if allocs := testing.AllocsPerRun(100, func() { memo.ComponentStats(q, 1) }); allocs != 0 {
		t.Errorf("a remembered predicate allocates %v times per ask", allocs)
	}
}

// TestMemoSharesWalks: 16 goroutines collect statistics for 16 distinct
// shapes that share two valued predicates; the synopsis answers the
// rest, and the two posting lists are walked once each however the asks
// interleave (CI runs this package under -race at GOMAXPROCS 1, 2, 8).
func TestMemoSharesWalks(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 60})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	memo := score.NewMemo(ix, synopsis.Build(doc))
	extras := []string{"./name", "./description", "./mailbox", "./shipping"}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		xpath := "//item[./location = 'United States' and ./quantity = '1'"
		for b, extra := range extras {
			if i&(1<<b) != 0 {
				xpath += " and " + extra
			}
		}
		q := pattern.MustParse(xpath + "]")
		want := score.CollectStats(ix, nil, q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := score.CollectStats(ix, memo, q)
			for id := range want.Exact {
				if got.Exact[id] != want.Exact[id] || got.Relaxed[id] != want.Relaxed[id] {
					t.Errorf("%s node %d: (%+v, %+v) through the memo, the walk (%+v, %+v)", q, id, got.Exact[id], got.Relaxed[id], want.Exact[id], want.Relaxed[id])
				}
			}
		}()
	}
	wg.Wait()
	if st := memo.Stats(); st.Walks != 2 || st.Hits != 30 || st.Len != 2 {
		t.Fatalf("memo %+v after 16 shapes over two valued predicates, want 2 walks and 30 hits", st)
	}
}
