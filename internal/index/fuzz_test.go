package index_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// FuzzCollectStats holds the posting-side statistics walk — asked
// directly, through a fresh score.Memo and through the same memo again
// — to bruteStats on arbitrary documents: //root[path op value] over
// whatever the XML parser accepts, every query node compared. The
// committed seed corpus (testdata/fuzz/FuzzCollectStats) adds
// nested-root documents.
func FuzzCollectStats(f *testing.F) {
	nested := []byte("<a><b>5</b><a><c><b>5</b></c><a><b>7</b></a></a><b>5</b></a><a><b>5</b></a>")
	f.Add(nested, "a", ".//b", "=", "5")
	f.Add(nested, "a", "./b", "!=", "5")
	f.Add(nested, "a", "./a/c/b", "<=", "6")
	f.Add(nested, "a", ".//a", "", "")
	f.Add(nested, "b", "./a", "", "")
	f.Add([]byte("<r><a>old gold</a><a><a>gold</a></a></r>"), "a", ".//a", "contains", "old")
	f.Add([]byte("<r><x><y>1</y></x><x/></r>"), "x", "./y[./z]", ">", "0")
	f.Fuzz(func(t *testing.T, raw []byte, rootTag, path, op, value string) {
		doc, err := xmltree.Parse(bytes.NewReader(raw))
		if err != nil || len(doc.Nodes) > 4096 {
			return
		}
		xpath := "//" + rootTag + "[" + path
		switch op {
		case "":
		case "<", "<=", ">", ">=":
			xpath += " " + op + " " + value
		default:
			xpath += " " + op + " '" + value + "'"
		}
		q, err := pattern.Parse(xpath + "]")
		if err != nil || q.Validate() != nil {
			return
		}
		ix := index.Build(doc)
		memo := score.NewMemo(ix, nil)
		for _, src := range []score.StatsSource{nil, memo, memo} { // the walk, the memo's first answer, its remembered one
			got := score.CollectStats(ix, src, q)
			for id := 1; id < q.Size(); id++ {
				exact, relaxed := bruteStats(doc, q, id)
				if got.Exact[id] != exact || got.Relaxed[id] != relaxed {
					t.Fatalf("%s node %d over %q (memo %v): stats (%+v, %+v), want (%+v, %+v)", q, id, raw, src != nil, got.Exact[id], got.Relaxed[id], exact, relaxed)
				}
			}
		}
		if st := memo.Stats(); st.Walks > int64(q.Size()-1) || st.Hits < int64(q.Size()-1) {
			t.Fatalf("%s over %q: memo %+v after two asks of %d nodes", q, raw, st, q.Size()-1)
		}
	})
}

// rootRecorder is a Scorer that notes the ordinal of every root the
// engine's root server materialises, in order.
type rootRecorder struct {
	score.Scorer
	ords []int
}

func (s *rootRecorder) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		s.ords = append(s.ords, int(ord))
	}
	return s.Scorer.Contribution(id, v, ord)
}

// FuzzRootStream holds the root server's stream to a brute-force walk of
// the document columns, with no postings, on arbitrary documents.
// //root[path op value] is drained by LockStep-NoPrun, which materialises
// every root the cursor has. Under leaf deletion that is, when the engine
// streams from the valued node's postings, the roots with a matching
// proper descendant, in ascending ordinal order, then every other root
// candidate, ascending, so each candidate appears exactly once; on the
// scan path every candidate in order. Without leaf deletion a root that
// lacks some query node's tag and value test in its subtree dies at the
// cursor, so the stream is, ascending on either path, the candidates
// whose subtree holds each non-root query node. The committed seed
// corpus (testdata/fuzz/FuzzRootStream) adds nested-root documents.
func FuzzRootStream(f *testing.F) {
	nested := []byte("<a><b>5</b><a><c><b>5</b></c><a><b>7</b></a></a><b>5</b></a><a><b>5</b></a><a><a/></a>")
	f.Add(nested, "a", ".//b", "=", "7")
	f.Add(nested, "a", "./b", "=", "5")
	f.Add(nested, "a", "./a/c/b", "<=", "6")
	f.Add(nested, "a", ".//a[./b]", "", "")
	f.Add(nested, "b", "./a", "=", "5")
	f.Add([]byte("<a>gold<a><a>gold</a></a><a/></a>"), "a", ".//a", "=", "gold")
	f.Add([]byte("<r><x><y>1</y></x><x/><x><y>2</y><y>1</y></x></r>"), "x", "./y[./z]", "=", "1")
	f.Fuzz(func(t *testing.T, raw []byte, rootTag, path, op, value string) {
		doc, err := xmltree.Parse(bytes.NewReader(raw))
		if err != nil || len(doc.Nodes) > 4096 {
			return
		}
		xpath := "//" + rootTag + "[" + path
		switch op {
		case "":
		case "<", "<=", ">", ">=":
			xpath += " " + op + " " + value
		default:
			xpath += " " + op + " '" + value + "'"
		}
		q, err := pattern.Parse(xpath + "]")
		if err != nil || q.Validate() != nil {
			return
		}
		ix := index.Build(doc)
		// Brute force over the columns: per candidate, whether a valued
		// node matches below it (the posting climb reaches it) and
		// whether every non-root node does (it survives without leaf
		// deletion).
		cols := doc.Columns()
		var reached, others, whole []int
		for n := int32(0); n < int32(cols.Len()); n++ {
			if cols.Tag(n) != rootTag {
				continue
			}
			below, found := false, uint64(1)
			for d := n + 1; d <= cols.End(n); d++ {
				for id := 1; id < q.Size(); id++ {
					qn := q.Nodes[id]
					if cols.Tag(d) == qn.Tag && index.Test(qn.ValueOp, qn.Value).Matches(cols.Value(d)) {
						found |= 1 << uint(id)
						below = below || qn.Value != ""
					}
				}
			}
			if below {
				reached = append(reached, int(n))
			} else {
				others = append(others, int(n))
			}
			if found == 1<<uint(q.Size())-1 {
				whole = append(whole, int(n))
			}
		}
		for _, mode := range []relax.Relaxation{relax.None, relax.EdgeGeneralization, relax.LeafDeletion, relax.All} {
			rec := &rootRecorder{Scorer: score.NewTFIDF(ix, q, score.Sparse)}
			eng, err := core.New(ix, q, core.Config{K: 1, Relax: mode, Algorithm: core.LockStepNoPrune, Scorer: rec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			want := whole
			if mode.Has(relax.LeafDeletion) {
				if want = slices.Concat(reached, others); eng.RootVia() == "scan" {
					slices.Sort(want)
				}
			}
			if !slices.Equal(rec.ords, want) {
				t.Fatalf("%s over %q, relax %v via %s: streamed roots %v, want %v", q, raw, mode, eng.RootVia(), rec.ords, want)
			}
		}
	})
}
