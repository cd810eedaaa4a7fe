package core

import (
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
)

const shopXML = `
<book><title>wodehouse stories</title><price>48.95</price></book>
<book><title>more wodehouse</title><price>12.50</price></book>
<book><title>austen</title><price>9.99</price></book>
<book><title>dickens</title><price>30</price></book>
<book><title>untagged</title></book>`

func TestNumericComparisonPredicates(t *testing.T) {
	ix, q := buildEnv(t, shopXML, "/book[./price < 20]")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 5, Relax: relax.None, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 2 {
		t.Fatalf("price<20 exact answers = %d, want 2", len(res.Answers))
	}
	ix2, q2 := buildEnv(t, shopXML, "/book[./price >= 30]")
	s2 := score.NewTFIDF(ix2, q2, score.Sparse)
	res2 := runWith(t, ix2, q2, Config{K: 5, Relax: relax.None, Algorithm: WhirlpoolS, Scorer: s2})
	if len(res2.Answers) != 2 {
		t.Fatalf("price>=30 exact answers = %d, want 2", len(res2.Answers))
	}
}

func TestContainsPredicate(t *testing.T) {
	ix, q := buildEnv(t, shopXML, "/book[./title contains 'wodehouse']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 5, Relax: relax.None, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 2 {
		t.Fatalf("contains answers = %d, want 2", len(res.Answers))
	}
}

func TestNotEqualPredicate(t *testing.T) {
	ix, q := buildEnv(t, shopXML, "/book[./title != 'austen']")
	s := score.NewTFIDF(ix, q, score.Sparse)
	res := runWith(t, ix, q, Config{K: 5, Relax: relax.None, Algorithm: WhirlpoolS, Scorer: s})
	if len(res.Answers) != 4 {
		t.Fatalf("!= answers = %d, want 4", len(res.Answers))
	}
}

func TestValueOpsStringRoundTrip(t *testing.T) {
	for _, xp := range []string{
		"/book[./price < 20]",
		"/book[./price >= 30.5]",
		"/book[./title contains 'wode']",
		"/book[./title != 'x']",
	} {
		q := pattern.MustParse(xp)
		q2, err := pattern.Parse(q.String())
		if err != nil {
			t.Fatalf("%s -> %s: %v", xp, q.String(), err)
		}
		for i := range q.Nodes {
			a, b := q.Nodes[i], q2.Nodes[i]
			if a.Value != b.Value || a.ValueOp != b.ValueOp {
				t.Fatalf("%s: node %d predicate changed: %q%q vs %q%q", xp, i, a.ValueOp, a.Value, b.ValueOp, b.Value)
			}
		}
	}
}

func TestValueOpValidation(t *testing.T) {
	if _, err := pattern.Parse("/book[./price < 'cheap']"); err == nil {
		t.Fatal("non-numeric ordered comparison should fail")
	}
	q := pattern.New("a", 1)
	q.AddValueOp(0, "b", 1, "~", "x")
	if err := q.Validate(); err == nil {
		t.Fatal("unsupported operator should fail validation")
	}
}

func TestValueTestMatching(t *testing.T) {
	cases := []struct {
		op, cmp, v string
		want       bool
	}{
		{"", "", "anything", true},
		{"=", "x", "x", true},
		{"=", "x", "y", false},
		{"!=", "x", "y", true},
		{"!=", "x", "x", false},
		{"contains", "ode", "wodehouse", true},
		{"contains", "ode", "austen", false},
		{"<", "10", "9.5", true},
		{"<", "10", "10", false},
		{"<=", "10", "10", true},
		{">", "10", "11", true},
		{">=", "10", "9", false},
		{"<", "10", "not-a-number", false},
	}
	for _, c := range cases {
		vt := index.Test(c.op, c.cmp)
		if got := vt.Matches(c.v); got != c.want {
			t.Errorf("Test(%q,%q).Matches(%q) = %v, want %v", c.op, c.cmp, c.v, got, c.want)
		}
	}
	if index.Test("", "x").Op != "=" {
		t.Fatal("legacy value should normalize to equality")
	}
	if err := index.Test("<", "abc").Valid(); err == nil {
		t.Fatal("non-numeric ordered comparand should be invalid")
	}
	if err := index.Test("??", "x").Valid(); err == nil {
		t.Fatal("unknown op should be invalid")
	}
}
