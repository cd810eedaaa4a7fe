package index

import (
	"sync"
	"testing"

	"repro/internal/dewey"
)

const pricesXML = `
<shop>
  <item><price>10</price></item>
  <item><price>25.5</price></item>
  <item><price>99</price></item>
  <item><note>no price</note></item>
</shop>`

func TestNodesMatchingOperators(t *testing.T) {
	ix := Build(mustDoc(t, pricesXML))
	cases := []struct {
		op, val string
		want    int
	}{
		{"", "", 3},
		{"=", "10", 1},
		{"!=", "10", 2},
		{"<", "30", 2},
		{"<=", "25.5", 2},
		{">", "25.5", 1},
		{">=", "10", 3},
		{"contains", "5", 2}, // 25.5 and... 25.5 only? "5" appears in 25.5 and 99? no: "10","25.5","99" → only 25.5 has '5'... twice in one value counts once
	}
	for _, c := range cases {
		got := len(ix.NodesMatching("price", Test(c.op, c.val)))
		if c.op == "contains" {
			// "5" is a substring of "25.5" only.
			if got != 1 {
				t.Errorf("contains '5' = %d, want 1", got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("op %q %q: %d nodes, want %d", c.op, c.val, got, c.want)
		}
	}
}

func TestNodesMatchingCachesFilteredLists(t *testing.T) {
	ix := Build(mustDoc(t, pricesXML))
	a := ix.Ords("price", Test("<", "30"))
	b := ix.Ords("price", Test("<", "30"))
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("filtered lengths: %d, %d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("filtered postings not cached")
	}
}

func TestNodesMatchingConcurrent(t *testing.T) {
	ix := Build(mustDoc(t, pricesXML))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := len(ix.NodesMatching("price", Test("<", "30"))); got != 2 {
					t.Errorf("concurrent filtered = %d", got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCandidatesWithOperators(t *testing.T) {
	ix := Build(mustDoc(t, pricesXML))
	shop := ix.Nodes("shop")[0]
	cheap := ix.AppendCandidates(nil, shop, dewey.Descendant, "price", Test("<", "30"))
	if len(cheap) != 2 {
		t.Fatalf("descendant cheap prices = %d", len(cheap))
	}
	item := ix.Nodes("item")[0]
	if got := ix.AppendCandidates(nil, item, dewey.Child, "price", Test(">", "5")); len(got) != 1 {
		t.Fatalf("child price>5 of item 1 = %d", len(got))
	}
	if got := ix.AppendCandidates(nil, item, dewey.Child, "price", Test(">", "50")); len(got) != 0 {
		t.Fatalf("child price>50 of item 1 = %d", len(got))
	}
}

func TestValueTestStrings(t *testing.T) {
	cases := map[string]ValueTest{
		"":             Test("", ""),
		"= 'x'":        Test("", "x"),
		"!= 'x'":       Test("!=", "x"),
		"< 10":         Test("<", "10"),
		"contains 'w'": Test("contains", "w"),
	}
	for want, vt := range cases {
		if got := vt.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestNonNumericValuesFailOrderedComparisons(t *testing.T) {
	ix := Build(mustDoc(t, pricesXML))
	// note's value "no price" never matches numeric comparisons.
	if got := len(ix.NodesMatching("note", Test("<", "100"))); got != 0 {
		t.Fatalf("non-numeric matched: %d", got)
	}
}
