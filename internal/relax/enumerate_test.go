package relax

import (
	"strings"
	"testing"

	"repro/internal/pattern"
)

func TestEnumerateFigure2(t *testing.T) {
	// The Figure 2(a) query; its relaxations include 2(b) (edge
	// generalization on book-title), 2(c) (promotion of publisher +
	// deletion of info + edge generalization) and 2(d) (further
	// deletions).
	q := pattern.MustParse("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']")
	rqs, truncated := Enumerate(q, All, 0)
	if truncated {
		t.Fatal("uncapped enumeration reported truncation")
	}
	if len(rqs) < 20 {
		t.Fatalf("closure suspiciously small: %d", len(rqs))
	}
	if rqs[0].Query.String() != q.String() {
		t.Fatal("original query must come first")
	}
	have := make(map[string]bool)
	for _, rq := range rqs {
		have[rq.Query.String()] = true
		if err := rq.Query.Validate(); err != nil {
			t.Fatalf("invalid relaxed query %s: %v", rq.Query, err)
		}
		if len(rq.NodeMap) != rq.Query.Size() {
			t.Fatalf("node map size mismatch for %s", rq.Query)
		}
	}
	// Figure 2(b): edge generalization on title.
	if !have["/book[.//title = 'wodehouse' and ./info[./publisher[./name = 'psmith']]]"] {
		keys := make([]string, 0)
		for k := range have {
			if strings.Contains(k, ".//title") && strings.Contains(k, "./info") {
				keys = append(keys, k)
			}
		}
		t.Fatalf("missing Figure 2(b); related: %v", keys)
	}
	// Figure 2(d): only book and title remain, title generalized.
	if !have["/book[.//title = 'wodehouse']"] {
		t.Fatal("missing Figure 2(d)")
	}
	// Full deletion down to the bare root.
	if !have["/book"] {
		t.Fatal("missing fully-deleted query")
	}
}

func TestEnumerateExactMatchesPreserved(t *testing.T) {
	// Every relaxed query must be a superset pattern: node tags/values
	// that survive must appear in the original.
	q := pattern.MustParse("//item[./description/parlist]")
	rqs, _ := Enumerate(q, All, 0)
	for _, rq := range rqs {
		for i, n := range rq.Query.Nodes {
			orig := q.Nodes[rq.NodeMap[i]]
			if n.Tag != orig.Tag || n.Value != orig.Value {
				t.Fatalf("node identity broken in %s: %v vs %v", rq.Query, n, orig)
			}
		}
	}
}

func TestEnumerateSingleRelaxations(t *testing.T) {
	q := pattern.MustParse("/a[./b/c]")
	// Edge generalization alone: axes flip pc→ad, 3 edges ⇒ 2^3 = 8.
	eg, _ := Enumerate(q, EdgeGeneralization, 0)
	if len(eg) != 8 {
		t.Fatalf("eg closure = %d, want 8", len(eg))
	}
	// Leaf deletion alone: delete c, then b ⇒ {abc, ab, a}.
	ld, _ := Enumerate(q, LeafDeletion, 0)
	if len(ld) != 3 {
		t.Fatalf("ld closure = %d, want 3", len(ld))
	}
	// Promotion alone: only c can move (to a) ⇒ 2 queries.
	sp, _ := Enumerate(q, SubtreePromotion, 0)
	if len(sp) != 2 {
		t.Fatalf("sp closure = %d, want 2", len(sp))
	}
	// No relaxation: the closure is the query itself.
	none, _ := Enumerate(q, None, 0)
	if len(none) != 1 {
		t.Fatalf("none closure = %d, want 1", len(none))
	}
}

func TestEnumerateLimit(t *testing.T) {
	q := pattern.MustParse("//item[./description/parlist and ./mailbox/mail/text]")
	rqs, truncated := Enumerate(q, All, 10)
	if !truncated {
		t.Fatal("Q2's closure must exceed 10 queries")
	}
	if len(rqs) != 10 {
		t.Fatalf("limit not honored: %d", len(rqs))
	}
}

func TestEnumerateClosureGrowsExponentially(t *testing.T) {
	// The paper's argument for plan-relaxation: the number of relaxed
	// queries explodes with query size.
	sizes := []string{
		"//item[./description]",
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox]",
	}
	prev := 0
	for i, xp := range sizes {
		rqs, truncated := Enumerate(pattern.MustParse(xp), All, 5000)
		if truncated {
			// Exceeding the cap IS exponential growth; it may only
			// happen for the largest query.
			if i != len(sizes)-1 {
				t.Fatalf("closure of %s truncated unexpectedly", xp)
			}
			return
		}
		if len(rqs) <= prev {
			t.Fatalf("closure did not grow: %s has %d (prev %d)", xp, len(rqs), prev)
		}
		prev = len(rqs)
	}
	// Exact closure sizes: 3, 10, 30 — ×3 per added node.
	if prev != 30 {
		t.Fatalf("largest closure = %d, want 30", prev)
	}
}
