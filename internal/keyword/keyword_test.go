package keyword

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Gold Ring", []string{"gold", "ring"}},
		{"  a,b;C(d)", []string{"a", "b", "c", "d"}},
		{"", nil},
		{"...", nil},
		{"item42 x", []string{"item42", "x"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

const shopXML = `
<shop>
  <item><name>gold ring</name><desc>fine gold band gold</desc></item>
  <item><name>silver ring</name><desc>plain silver band</desc></item>
  <item><name>gold necklace</name><desc>long chain</desc></item>
  <item><name>wooden bowl</name><desc>carved oak</desc></item>
</shop>`

func buildIx(t *testing.T) *Index {
	t.Helper()
	doc, err := xmltree.ParseString(shopXML)
	if err != nil {
		t.Fatal(err)
	}
	return Build(doc, "item")
}

func TestBuildPostings(t *testing.T) {
	ix := buildIx(t)
	if ix.Scopes() != 4 {
		t.Fatalf("scopes = %d", ix.Scopes())
	}
	gold := ix.Postings("gold")
	if len(gold) != 2 {
		t.Fatalf("gold postings = %d", len(gold))
	}
	// Sorted by tf descending: item 1 has gold×3.
	if gold[0].TF != 3 || gold[1].TF != 1 {
		t.Fatalf("gold tfs = %d, %d", gold[0].TF, gold[1].TF)
	}
	if ix.TF("gold", int(gold[0].Node.Ord)) != 3 {
		t.Fatal("random access mismatch")
	}
	// gold and ring each appear in two items: equal idf.
	if ix.IDF("gold") != ix.IDF("ring") {
		t.Fatalf("idf(gold)=%v != idf(ring)=%v", ix.IDF("gold"), ix.IDF("ring"))
	}
	if ix.IDF("absent") != 0 {
		t.Fatal("absent word idf should be 0")
	}
	// Rarer word has higher idf.
	if !(ix.IDF("oak") > ix.IDF("gold")) {
		t.Fatalf("idf(oak)=%v should exceed idf(gold)=%v", ix.IDF("oak"), ix.IDF("gold"))
	}
}

func TestScanRanking(t *testing.T) {
	ix := buildIx(t)
	res := ix.TopKScan("gold ring", 4)
	if len(res) != 3 {
		t.Fatalf("answers = %d, want 3 (bowl has neither word)", len(res))
	}
	// The triple-gold ring item must win.
	if res[0].Node.Children[0].Value != "gold ring" {
		t.Fatalf("top answer = %v", res[0].Node)
	}
}

func TestTAMatchesScan(t *testing.T) {
	ix := buildIx(t)
	for _, query := range []string{"gold", "gold ring", "silver band oak", "absent", "gold gold"} {
		for k := 1; k <= 4; k++ {
			want := ix.TopKScan(query, k)
			got, _, err := ix.TopKTA(query, k)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, query, k, got, want)
			gotNRA, _ := ix.TopKNRA(query, k)
			assertSame(t, query+" (NRA)", k, gotNRA, want)
		}
	}
}

func assertSame(t *testing.T, label string, k int, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: %d answers, want %d", label, k, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s k=%d: score %d = %v, want %v", label, k, i, got[i].Score, want[i].Score)
		}
	}
}

func TestTARandomizedAgainstScan(t *testing.T) {
	vocab := []string{"gold", "silver", "oak", "jade", "ring", "bowl", "chain", "band"}
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		b := xmltree.NewBuilder().Root("shop")
		items := 3 + r.Intn(10)
		for i := 0; i < items; i++ {
			b.Open("item")
			var sb strings.Builder
			for w := 0; w < 1+r.Intn(8); w++ {
				sb.WriteString(vocab[r.Intn(len(vocab))] + " ")
			}
			b.Leaf("desc", sb.String())
			b.Close()
		}
		ix := Build(b.Doc(), "item")
		queryWords := make([]string, 1+r.Intn(3))
		for i := range queryWords {
			queryWords[i] = vocab[r.Intn(len(vocab))]
		}
		query := strings.Join(queryWords, " ")
		k := 1 + r.Intn(4)
		want := ix.TopKScan(query, k)
		got, _, err := ix.TopKTA(query, k)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, query, k, got, want)
		gotNRA, _ := ix.TopKNRA(query, k)
		assertSame(t, query+" (NRA)", k, gotNRA, want)
	}
}

func TestTAEarlyTermination(t *testing.T) {
	// On a large corpus with a skewed word, TA must stop long before
	// scanning every posting.
	doc, err := xmark.Generate(xmark.Options{Seed: 4, Items: 500})
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, "item")
	_, st, err := ix.TopKTA("gold silver", 5)
	if err != nil {
		t.Fatal(err)
	}
	total := len(ix.Postings("gold")) + len(ix.Postings("silver"))
	if st.SortedAccesses >= total {
		t.Fatalf("TA did not terminate early: %d sorted accesses of %d postings", st.SortedAccesses, total)
	}
	if st.RandomAccesses == 0 {
		t.Fatal("TA performed no random accesses")
	}
	// NRA must not use random access... by construction it reports only
	// sorted accesses.
	_, stNRA := ix.TopKNRA("gold silver", 5)
	if stNRA.RandomAccesses != 0 {
		t.Fatal("NRA must not use random access")
	}
	if stNRA.SortedAccesses == 0 {
		t.Fatal("NRA did no work")
	}
}

func TestEmptyQueryAndUnknownScope(t *testing.T) {
	ix := buildIx(t)
	if res := ix.TopKScan("", 3); len(res) != 0 {
		t.Fatalf("empty query answers = %d", len(res))
	}
	if _, _, err := ix.TopKTA("", 3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty TA query error = %v, want ErrBadQuery", err)
	}
	if _, _, err := ix.TopKTA("gold", 0); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("k=0 TA error = %v, want ErrBadQuery", err)
	}
	doc, _ := xmltree.ParseString(shopXML)
	empty := Build(doc, "nothing")
	if empty.Scopes() != 0 {
		t.Fatal("unknown scope should index nothing")
	}
	if res, _, err := empty.TopKTA("gold", 3); err != nil || len(res) != 0 {
		t.Fatalf("empty index should answer nothing without error, got %d answers, err %v", len(res), err)
	}
}
