package dewey

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareDocumentOrder(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "0", -1},       // root precedes its child
		{"0", "1", -1},      // earlier sibling
		{"1.5", "1.5", 0},   // equal
		{"1.2", "1.10", -1}, // numeric, not lexicographic-string
		{"2", "1.9.9", 1},
		{"1", "1.0", -1}, // ancestor before descendant
	}
	for _, c := range cases {
		a, err := Parse(c.a)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.a, err)
		}
		b, err := Parse(c.b)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.b, err)
		}
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := b.Compare(a); got != -c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestAncestorDescendant(t *testing.T) {
	a := ID{1, 2}
	d := ID{1, 2, 0, 4}
	if !a.IsAncestorOf(d) {
		t.Error("IsAncestorOf failed on strict prefix")
	}
	if a.IsAncestorOf(a) {
		t.Error("a node is not its own ancestor")
	}
	if !d.IsDescendantOf(a) {
		t.Error("IsDescendantOf failed")
	}
	if a.IsParentOf(d) {
		t.Error("IsParentOf should require exactly one extra level")
	}
	if !a.IsParentOf(ID{1, 2, 7}) {
		t.Error("IsParentOf failed on direct child")
	}
	if (ID{1, 3}).IsAncestorOf(d) {
		t.Error("non-prefix claimed as ancestor")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{"·", "0", "1.2.3", "10.0.7"} {
		id, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := id.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, bad := range []string{"a", "1..2", "-1", "1.-2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestAxisCompose(t *testing.T) {
	if Compose(Self, Child) != Child || Compose(Child, Self) != Child {
		t.Error("Self must be the identity for Compose")
	}
	if Compose(Child, Child) != Descendant {
		t.Error("pc∘pc must widen to ad")
	}
	if Compose(Descendant, Child) != Descendant || Compose(Child, Descendant) != Descendant {
		t.Error("compositions through ad are ad")
	}
}

func TestAxisStrings(t *testing.T) {
	names := map[Axis]string{
		Self: "self", Child: "pc", Descendant: "ad",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Axis(99).String() != "axis(?)" {
		t.Error("unknown axis should render a placeholder")
	}
}

// randomID produces a bounded random Dewey ID for property tests.
func randomID(r *rand.Rand) ID {
	n := r.Intn(6)
	id := make(ID, n)
	for i := range id {
		id[i] = r.Intn(4)
	}
	return id
}

func TestPropCompareIsTotalOrder(t *testing.T) {
	// Antisymmetry and transitivity over random triples.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomID(r), randomID(r), randomID(r)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAncestorIffDocOrderSandwich(t *testing.T) {
	// a is an ancestor of d iff a < d < a's next sibling in document order
	// (for non-root a): a subtree is one contiguous run of the order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, d := randomID(r), randomID(r)
		if len(a) == 0 {
			return true
		}
		next := slices.Clone(a)
		next[len(next)-1]++
		inRange := a.Compare(d) < 0 && d.Compare(next) < 0
		return inRange == a.IsAncestorOf(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropChildImpliesDescendant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomID(r), randomID(r)
		// pc relaxes to ad: a parent is an ancestor.
		return !a.IsParentOf(b) || a.IsAncestorOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDocumentOrderSortStable(t *testing.T) {
	// Sorting by Compare yields ancestors before descendants.
	r := rand.New(rand.NewSource(7))
	ids := make([]ID, 200)
	for i := range ids {
		ids[i] = randomID(r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	for i := 0; i+1 < len(ids); i++ {
		if ids[i+1].IsAncestorOf(ids[i]) {
			t.Fatalf("descendant %v sorted before ancestor %v", ids[i], ids[i+1])
		}
	}
}
