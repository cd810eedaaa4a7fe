package pattern

import (
	"testing"
)

// TestCanonicalKeyIgnoresPredicateOrder checks that queries differing
// only in predicate declaration order share a key and a canonical form,
// while structurally distinct queries do not collide.
func TestCanonicalKeyIgnoresPredicateOrder(t *testing.T) {
	same := [][]string{
		{"/a[./b and ./c]", "/a[./c and ./b]"},
		{
			"//item[./description/parlist and ./mailbox/mail/text]",
			"//item[./mailbox/mail/text and ./description/parlist]",
		},
		{
			"/a[./b[./x and .//y] and ./b[.//y and ./x]]",
			"/a[./b[.//y and ./x] and ./b[./x and .//y]]",
		},
		{"/a[./b = 'v' and ./c]", "/a[./c and ./b = 'v']"},
	}
	for _, pair := range same {
		q1, q2 := MustParse(pair[0]), MustParse(pair[1])
		k1, k2 := CanonicalKey(q1), CanonicalKey(q2)
		if k1 != k2 {
			t.Errorf("%s and %s: keys differ:\n  %s\n  %s", pair[0], pair[1], k1, k2)
		}
		if c1, c2 := Canonicalize(q1).String(), Canonicalize(q2).String(); c1 != c2 {
			t.Errorf("%s and %s: canonical forms differ: %s vs %s", pair[0], pair[1], c1, c2)
		}
	}
	distinct := []string{
		"/a[./b and ./c]",
		"//a[./b and ./c]",
		"/a[./b and .//c]",
		"/a[./b = 'c]' and ./c]",
		"/a[./b = 'c' and ./c]",
		"/a[./b != 'c' and ./c]",
		"/a[./b[./c]]",
		"/a[./b and ./b]",
		"/a[./b]",
	}
	seen := make(map[string]string)
	for _, qs := range distinct {
		k := CanonicalKey(MustParse(qs))
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct queries %s and %s collide on key %s", prev, qs, k)
		}
		seen[k] = qs
	}
}

// TestCanonicalizeValidates checks canonicalized queries stay
// well-formed and answer-equivalent in rendering terms: the canonical
// form re-parses and is a fixed point of Canonicalize.
func TestCanonicalizeValidates(t *testing.T) {
	for _, qs := range []string{
		"/a[./c[.//e = 'x'] and ./b]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name]",
		"/a[.//b = \"x\"]",
	} {
		q := MustParse(qs)
		c := Canonicalize(q)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: canonical form invalid: %v", qs, err)
		}
		if CanonicalKey(c) != CanonicalKey(q) {
			t.Fatalf("%s: canonicalization changed the key", qs)
		}
		again := Canonicalize(MustParse(c.String()))
		if again.String() != c.String() {
			t.Fatalf("%s: canonical form is not a fixed point: %s vs %s", qs, again, c)
		}
	}
}

// FuzzCanonicalKey drives the canonicalizer with parser-accepted
// queries: reversing every predicate list must not change the key, and
// two queries with equal keys must have identical canonical renderings
// (no collisions between structurally distinct queries).
func FuzzCanonicalKey(f *testing.F) {
	seeds := [][2]string{
		{"/a[./b and ./c]", "/a[./c and ./b]"},
		{"//item[./description/parlist]", "//item[./name = 'x']"},
		{"/a[./b[./x and .//y] and ./c]", "/a[./b and ./b]"},
		{"/a[./b = 'c]' and ./c]", "/a[./b = 'c' and ./c]"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, in1, in2 string) {
		q1, err := Parse(in1)
		if err != nil {
			return
		}
		// Order-invariance: recursively reversing every child list
		// must not change the canonical key.
		rev := q1.Clone()
		for _, n := range rev.Nodes {
			for i, j := 0, len(n.Children)-1; i < j; i, j = i+1, j-1 {
				n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
			}
		}
		if CanonicalKey(rev) != CanonicalKey(q1) {
			t.Fatalf("key of %q changes under predicate reversal", in1)
		}
		c1 := Canonicalize(q1)
		if err := c1.Validate(); err != nil {
			t.Fatalf("canonicalization of %q invalid: %v", in1, err)
		}
		q2, err := Parse(in2)
		if err != nil {
			return
		}
		eqKey := CanonicalKey(q1) == CanonicalKey(q2)
		eqForm := c1.String() == Canonicalize(q2).String()
		if eqKey != eqForm {
			t.Fatalf("key equality %v but canonical-form equality %v for %q vs %q", eqKey, eqForm, in1, in2)
		}
	})
}
