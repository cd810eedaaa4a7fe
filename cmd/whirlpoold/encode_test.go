package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// referenceBody is the /query body as encoding/json writes it for the
// queryResponse of res — its ordinals resolved to doc's nodes, as the
// facade resolves them, -1 to a nil binding — bindings keyed by q's
// node IDs and tags.
func referenceBody(t *testing.T, q *whirlpool.Query, doc *xmltree.Document, res *core.Result, cache string) []byte {
	t.Helper()
	resp := queryResponse{
		Answers:      make([]queryAnswer, 0, len(res.Answers)),
		ServerOps:    res.Stats.ServerOps,
		Matches:      res.Stats.MatchesCreated,
		Pruned:       res.Stats.Pruned,
		PrunedRemote: res.Stats.PrunedRemote,
		TookMS:       float64(res.Stats.Duration.Microseconds()) / 1000,
		Cache:        cache,
	}
	for _, a := range res.Answers {
		root := doc.Nodes[a.Root]
		qa := queryAnswer{Score: a.Score, Path: root.Path(), Dewey: root.ID.String(), Bindings: map[string]string{}}
		for id, o := range a.Bindings {
			var b *xmltree.Node
			if o >= 0 {
				b = doc.Nodes[o]
			}
			if b != nil && id != 0 {
				qa.Bindings[strconv.Itoa(id)+":"+q.Nodes[id].Tag] = b.ID.String()
			}
		}
		resp.Answers = append(resp.Answers, qa)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBody holds the body appendResponse renders from doc's columns to
// referenceBody's.
func checkBody(t *testing.T, name string, q *whirlpool.Query, doc *xmltree.Document, res *core.Result, cache string) {
	t.Helper()
	got := newEngineEntry("", q).appendResponse([]byte("prefix"), doc.Columns(), res, cache)
	if want := referenceBody(t, q, doc, res, cache); !bytes.Equal(got[len("prefix"):], want) {
		t.Errorf("%s:\n got %s\nwant %s", name, got[len("prefix"):], want)
	}
}

// TestAppendResponseMatchesEncoder holds the appended /query body to
// encoding/json's encoding of the same queryResponse, byte for byte.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	t.Run("served", func(t *testing.T) {
		sawRemote := false
		for _, shards := range []int{1, 4} {
			s := testServerOpts(t, serverOptions{Shards: shards})
			queries := append(bench.Queries(), bench.Workload{Name: "none", XPath: "//item[./nosuchtag]"})
			for _, w := range queries {
				for _, k := range []int{1, 15, 75} {
					for _, exact := range []bool{true, false} {
						name := fmt.Sprintf("shards-%d/%s/k%d/exact=%v", shards, w.Name, k, exact)
						ent, _, err := s.engineFor(queryRequest{Query: w.XPath, K: k, Exact: exact})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						res, err := ent.run(context.Background())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if w.Name == "none" && exact && len(res.Answers) != 0 {
							t.Fatalf("%s: %d answers, want none", name, len(res.Answers))
						}
						sawRemote = sawRemote || res.Stats.PrunedRemote != 0
						q, err := whirlpool.ParseQuery(w.XPath)
						if err != nil {
							t.Fatal(err)
						}
						r := whirlpool.RelaxAll
						if exact {
							r = whirlpool.RelaxNone
						}
						plan, _, err := s.planner.PlanFor(q, r, whirlpool.NormSparse)
						if err != nil {
							t.Fatal(err)
						}
						checkBody(t, name, plan.Query, s.db.Document(), res, "hit")
					}
				}
			}
		}
		if !sawRemote {
			t.Error("no sharded response carried pruned_remote")
		}
	})

	// A hand-built document and pattern: eleven bound nodes, so "10:…"
	// and "11:…" sort before "2:…"; tags that need escaping in both the
	// path and the binding keys; scores at the float format's edges.
	odd := []string{"a&b", "<lt>", "ls\u2028ps\u2029", "bad\xffutf8", `q"\`}
	b := xmltree.NewBuilder().Root("site").Open(odd[0]).Open("r")
	for i := 1; i <= 11; i++ {
		b.Leaf(fmt.Sprintf("c%d", i), "")
	}
	for _, tag := range odd {
		b.Leaf(tag, "")
	}
	doc := b.Doc()
	root := doc.Nodes[2]
	q := pattern.New("r", dewey.Descendant)
	for _, n := range root.Children {
		q.Add(0, n.Tag, dewey.Child)
	}
	bound := []int32{root.Ord}
	for _, n := range root.Children {
		bound = append(bound, n.Ord)
	}
	unbound := make([]int32, len(bound))
	for i := range unbound {
		unbound[i] = -1
	}
	unbound[0] = root.Ord
	stats := whirlpool.Stats{ServerOps: 41, MatchesCreated: 17, Pruned: 9, Duration: 1234567 * time.Nanosecond}
	remote := stats
	remote.PrunedRemote = 3
	answers := func(binds []int32, scores ...float64) []core.Answer {
		var out []core.Answer
		for _, sc := range scores {
			out = append(out, core.Answer{Root: root.Ord, Bindings: binds, Score: sc})
		}
		return out
	}
	for _, c := range []struct {
		name  string
		res   core.Result
		cache string
	}{
		{"no answers", core.Result{Stats: stats}, "miss"},
		{"eleven-node pattern", core.Result{Answers: answers(bound, 2.5), Stats: stats}, "hit"},
		{"all bindings nil", core.Result{Answers: answers(unbound, 1, 0.5), Stats: stats}, "hit"},
		{"float edges", core.Result{Answers: answers(bound, 0, 1e-7, 1e21, 1e-6, 123456.789), Stats: stats}, "hit"},
		{"pruned_remote", core.Result{Answers: answers(bound, 3), Stats: remote}, "hit"},
		{"escaped cache", core.Result{Stats: stats}, "<&\u2028>"},
	} {
		checkBody(t, c.name, q, doc, &c.res, c.cache)
	}
}

// TestAppendResponseAllocs: rendering a served response — scores, paths,
// and the Dewey IDs derived from the root's and each binding's positions
// — allocates nothing once the buffer has grown.
func TestAppendResponseAllocs(t *testing.T) {
	s := testServer(t)
	for _, w := range bench.Queries() {
		ent, _, err := s.engineFor(queryRequest{Query: w.XPath, K: 75})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ent.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%s: no answers", w.Name)
		}
		cols := s.db.Columns()
		buf := ent.appendResponse(nil, cols, res, "hit")
		if allocs := testing.AllocsPerRun(20, func() { buf = ent.appendResponse(buf[:0], cols, res, "hit") }); allocs != 0 {
			t.Errorf("%s: appendResponse allocates %v times per response", w.Name, allocs)
		}
	}
}

// FuzzAppendJSONString holds the string escaper to json.Marshal.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `q"\`, "<a>&b", "\u2028\u2029", "\xff\xfe\xe2\x80", "\x00\b\f\n\r\t\x1f\x7f", "é€😀"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}
