package index_test

import (
	"bytes"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// FuzzCollectStats holds the posting-side statistics walk to bruteStats
// on arbitrary documents: //root[path op value] over whatever the XML
// parser accepts, every query node compared. The committed seed corpus
// (testdata/fuzz/FuzzCollectStats) adds nested-root documents.
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
		got := score.CollectStats(index.Build(doc), nil, q)
		for id := 1; id < q.Size(); id++ {
			exact, relaxed := bruteStats(doc, q, id)
			if got.Exact[id] != exact || got.Relaxed[id] != relaxed {
				t.Fatalf("%s node %d over %q: stats (%+v, %+v), want (%+v, %+v)", q, id, raw, got.Exact[id], got.Relaxed[id], exact, relaxed)
			}
		}
	})
}
