package index_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// sourceCase is one index.Source implementation under test.
type sourceCase struct {
	name string
	src  index.Source
	// doc is the document whose *xmltree.Node pointers src hands out (a
	// snapshot reader serves its own node slab, not the document it was
	// written from).
	doc *xmltree.Document
}

// sourceCases builds the access paths over doc: the two backings — the
// in-memory Index and the snapshot reader — each alone and through a
// p-shard Corpus, which only embeds it.
func sourceCases(t *testing.T, doc *xmltree.Document, p int) []sourceCase {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Cols: doc.Columns()}); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var cases []sourceCase
	for _, backing := range []struct {
		name string
		src  index.Source
		doc  *xmltree.Document
	}{{"Index", index.Build(doc), doc}, {"SnapshotReader", r, r.Document()}} {
		corpus, err := shard.New(backing.src, p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			sourceCase{backing.name, backing.src, backing.doc},
			sourceCase{backing.name + "/Corpus", corpus, backing.doc})
	}
	return cases
}

// conformanceDocs returns an XMark document and a few random forests
// whose values exercise every value-test kind, each with the tags and
// value tests worth probing on it.
func conformanceDocs(t *testing.T) []conformanceDoc {
	t.Helper()
	xm, err := xmark.Generate(xmark.Options{Seed: 1, Items: 30})
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, n := range xm.Nodes {
		if n.Tag == "name" && n.Value != "" {
			name = n.Value
			break
		}
	}
	docs := []conformanceDoc{{
		name: "xmark", doc: xm,
		tags: []string{"site", "item", "description", "parlist", "text", "name", "quantity", "incategory", "absent"},
		vts: []index.ValueTest{{}, index.ValueEq(name), index.Test("<", "3"), index.Test("contains", "a"),
			index.Test("!=", "x"), index.Test(">", "100"), index.Test("<=", "2"), index.Test(">=", "4")},
		shapes: []string{
			"//parlist[.//text contains 'gold']", "//parlist[.//bold = 'onyx']", "//parlist[./listitem/text contains 'a']",
			"//parlist[.//parlist]", "//parlist[./listitem/parlist/listitem]", "//listitem[.//listitem/text != '']",
			"//item[./mailbox/mail/text/keyword = 'onyx']", "//item[./description/parlist/listitem/text contains 'gold']",
			"//item[./mailbox/mail/text[./keyword] contains 'onyx' and ./quantity >= 2]",
			"//mail[./from = 'jade' and ./to != 'jade']", "//item[./location = 'Atlantis']", "//absent[./name]",
			// One instance of each whirlload cold_shapes template.
			"//item[./location = 'United States' and ./quantity = '1']",
			"//item[./location = 'United States' and ./payment = 'Cash' and .//keyword = 'vintage']",
			"//item[./quantity = '1' and ./mailbox/mail/text/keyword = 'vintage']", "//mail[./from = 'jade' and ./to = 'antique']",
		},
	}}
	r := rand.New(rand.NewSource(42))
	tags := []string{"r", "a", "b", "c", "d"}
	values := []string{"", "", "1", "5", "12", "gold ring", "old"}
	for i := 0; i < 4; i++ {
		b := xmltree.NewBuilder()
		var grow func(depth int)
		grow = func(depth int) {
			if depth > 5 {
				return
			}
			for kids := r.Intn(4); kids > 0; kids-- {
				b.Open(tags[1+r.Intn(len(tags)-1)]).Text(values[r.Intn(len(values))])
				grow(depth + 1)
				b.Close()
			}
		}
		for roots := r.Intn(3) + 1; roots > 0; roots-- {
			b.Root("r")
			grow(1)
		}
		doc := b.Doc()
		docs = append(docs, conformanceDoc{
			name: fmt.Sprintf("random%d", i), doc: doc, tags: append(tags, "absent"),
			vts: []index.ValueTest{{}, index.ValueEq("5"), index.Test("<", "10"), index.Test("contains", "old")},
			shapes: []string{
				"//a[.//a]", "//a[./a = '5']", "//a[.//a/a]", "//a[./b/c/d = '5']", "//a[./b/c != '5']",
				"//a[.//b[./c] = '5']", "//a[./b//c contains 'old']", "//a[./d = 'absent']", "//r[.//a/b <= 12]", "//r[./a >= 5]",
			},
		})
	}
	return docs
}

type conformanceDoc struct {
	name string
	doc  *xmltree.Document
	tags []string // tags[1] is the root tag of the statistics shapes
	vts  []index.ValueTest
	// shapes are further queries for checkStats: recursive root tags
	// (nested open roots), the root tag as the posting's own tag,
	// multi-step exact paths, a valued inner node, empty posting lists.
	shapes []string
}

// walk is the brute-force reference for AppendCandidates: the (tag, vt)
// nodes on the axis of anchor found by walking the tree, document order.
func walk(anchor *xmltree.Node, axis dewey.Axis, tag string, vt index.ValueTest) []*xmltree.Node {
	var pool []*xmltree.Node
	switch axis {
	case dewey.Self:
		pool = []*xmltree.Node{anchor}
	case dewey.Child:
		pool = anchor.Children
	case dewey.Descendant:
		pool = anchor.Descendants()
	}
	var out []*xmltree.Node
	for _, n := range pool {
		if n.Tag == tag && vt.Matches(n.Value) {
			out = append(out, n)
		}
	}
	return out
}

// checkContract holds one source to the contract: Ords, Nodes and
// NodesMatching enumerate exactly the (tag, vt) nodes in document
// order, and AppendCandidates anchored at a sample of nodes — like the
// resolved Probe's Append over ordinals — appends exactly the tree
// walk's answer after dst's existing elements, for every axis (an
// unsupported one appends nothing), tag and value-test kind.
func checkContract(t *testing.T, c sourceCase, d conformanceDoc) {
	var anchors []*xmltree.Node
	for i, n := range c.doc.Nodes {
		if i%5 == 0 || n.Parent == nil {
			anchors = append(anchors, n)
		}
	}
	sentinel := &xmltree.Node{Tag: "sentinel"}
	for _, tag := range d.tags {
		for _, vt := range d.vts {
			var want []*xmltree.Node
			for _, n := range c.doc.Nodes {
				if n.Tag == tag && vt.Matches(n.Value) {
					want = append(want, n)
				}
			}
			if got := c.src.NodesMatching(tag, vt); !slices.Equal(got, want) {
				t.Fatalf("NodesMatching(%q, %v) = %v, want %v", tag, vt, got, want)
			}
			if got := c.src.Ords(tag, vt); !slices.Equal(got, ordsOf(want)) {
				t.Fatalf("Ords(%q, %v) = %v, want %v", tag, vt, got, ordsOf(want))
			}
			if vt.Any() && !slices.Equal(c.src.Nodes(tag), want) {
				t.Fatalf("Nodes(%q) = %v, want %v", tag, c.src.Nodes(tag), want)
			}
			probe := c.src.Probe(tag, vt)
			hints := map[dewey.Axis]int{} // the last start per axis, carried over ascending anchors
			for _, anchor := range anchors {
				for _, axis := range []dewey.Axis{dewey.Self, dewey.Child, dewey.Descendant} {
					got := c.src.AppendCandidates([]*xmltree.Node{sentinel}, anchor, axis, tag, vt)
					if len(got) == 0 || got[0] != sentinel || !slices.Equal(got[1:], walk(anchor, axis, tag, vt)) {
						t.Fatalf("AppendCandidates(%v, %v, %q, %v) = %v, want sentinel + %v",
							anchor, axis, tag, vt, got, walk(anchor, axis, tag, vt))
					}
					probed, _ := probe.Append([]int32{-1}, anchor.Ord, axis, 0)
					if want := append([]int32{-1}, int32s(ordsOf(got[1:]))...); !slices.Equal(probed, want) {
						t.Fatalf("Probe(%q, %v).Append(%v, %v) = %v, AppendCandidates %v", tag, vt, anchor, axis, probed, want)
					}
					// A start hint, galloped from or past the anchor (the
					// binary search), changes nothing but the work.
					start, _ := slices.BinarySearch(probe.Ords(), uint32(anchor.Ord)+1)
					for _, hint := range []int{hints[axis], len(probe.Ords())} {
						again, at := probe.Append([]int32{-1}, anchor.Ord, axis, hint)
						if axis == dewey.Self {
							start = hint
						}
						if !slices.Equal(again, probed) || at != start {
							t.Fatalf("Probe(%q, %v).Append(%v, %v) from hint %d = %v starting at %d, want %v at %d", tag, vt, anchor, axis, hint, again, at, probed, start)
						}
					}
					hints[axis] = start
				}
			}
		}
	}
}

// ordsOf returns the nodes' ordinals.
func ordsOf(ns []*xmltree.Node) []uint32 {
	out := make([]uint32, len(ns))
	for i, n := range ns {
		out[i] = uint32(n.Ord)
	}
	return out
}

// int32s converts posting ordinals to candidate ordinals.
func int32s(ords []uint32) []int32 {
	out := make([]int32, len(ords))
	for i, o := range ords {
		out[i] = int32(o)
	}
	return out
}

// bruteStats is the reference for score.CollectStats on node id ≥ 1 of
// q: a depth-counting tree walk below every root-tag node, which knows
// nothing of postings, Parent links or Dewey IDs. A (root, node) pair
// counts as relaxed whenever the node lies below the root, and as exact
// when its depth below the root is what the composed path prescribes.
func bruteStats(doc *xmltree.Document, q *pattern.Query, id int) (exact, relaxed index.PredicateStats) {
	pp := relax.ComposePath(q, 0, id)
	node := q.Nodes[id]
	vt := index.Test(node.ValueOp, node.Value)
	var tfExact, tfRelaxed int
	var below func(n *xmltree.Node, depth int)
	below = func(n *xmltree.Node, depth int) {
		for _, ch := range n.Children {
			if ch.Tag == node.Tag && vt.Matches(ch.Value) {
				tfRelaxed++
				if depth+1 == pp.MinLevels || (!pp.Exact && depth+1 > pp.MinLevels) {
					tfExact++
				}
			}
			below(ch, depth+1)
		}
	}
	add := func(st *index.PredicateStats, tf int) {
		st.RootCount++
		if tf > 0 {
			st.Satisfying++
			st.TotalPairs += tf
			st.MaxTF = max(st.MaxTF, tf)
		}
	}
	for _, r := range doc.Nodes {
		if r.Tag == q.Root().Tag {
			tfExact, tfRelaxed = 0, 0
			below(r, 0)
			add(&exact, tfExact)
			add(&relaxed, tfRelaxed)
		}
	}
	return exact, relaxed
}

// statShapes returns the queries checkStats runs on d: for every probe
// tag and value test //root[./tag vt] and //root[.//tag vt], then d's own
// shapes — the inputs a posting-side walk can get wrong.
func statShapes(d conformanceDoc) []string {
	var shapes []string
	for _, tag := range d.tags[2:] {
		for _, vt := range d.vts {
			pred := tag
			if !vt.Any() {
				pred += " " + vt.String()
			}
			shapes = append(shapes, fmt.Sprintf("//%s[./%s]", d.tags[1], pred), fmt.Sprintf("//%s[.//%s]", d.tags[1], pred))
		}
	}
	return append(shapes, d.shapes...)
}

// checkStats holds score.CollectStats — the single statistics producer,
// which computes every non-root predicate by walking the node's postings
// up to their root-tag ancestors — to bruteStats on every node of every
// shape, and the root node's own predicate to a count of the roots
// (exactly: the forest roots only, under a leading /).
func checkStats(t *testing.T, c sourceCase, d conformanceDoc) {
	// One memo for all shapes, as a planner keeps one for all queries:
	// whatever the shapes before left in it, its first answer (a walk or
	// a hit on another shape's entry) and its second (hits only) must be
	// the walk's, field for field.
	memo := score.NewMemo(c.src, nil)
	for _, xpath := range statShapes(d) {
		q := pattern.MustParse(xpath)
		got := score.CollectStats(c.src, nil, q)
		for id := 1; id < q.Size(); id++ {
			exact, relaxed := bruteStats(c.doc, q, id)
			if got.Exact[id] != exact || got.Relaxed[id] != relaxed {
				t.Fatalf("%s node %d: stats (%+v, %+v), want (%+v, %+v)", xpath, id, got.Exact[id], got.Relaxed[id], exact, relaxed)
			}
		}
		first := score.CollectStats(c.src, memo, q)
		walks := memo.Stats().Walks
		second := score.CollectStats(c.src, memo, q)
		if again := memo.Stats().Walks - walks; again != 0 {
			t.Fatalf("%s asked again walked %d posting lists, want none", xpath, again)
		}
		for pass, through := range []score.Stats{first, second} {
			if !slices.Equal(through.Exact, got.Exact) || !slices.Equal(through.Relaxed, got.Relaxed) {
				t.Fatalf("%s through the memo, ask %d: stats %+v, want %+v", xpath, pass+1, through, got)
			}
		}
	}
	rootTag := d.tags[1]
	roots, forestRoots := 0, 0
	for _, n := range c.doc.Nodes {
		if n.Tag == rootTag {
			roots++
			if n.Parent == nil {
				forestRoots++
			}
		}
	}
	every := index.PredicateStats{RootCount: roots, Satisfying: roots, TotalPairs: roots, MaxTF: 1}
	top := index.PredicateStats{RootCount: roots, Satisfying: forestRoots, TotalPairs: forestRoots, MaxTF: 1}
	if got := score.CollectStats(c.src, nil, pattern.MustParse("//"+rootTag)); got.Exact[0] != every || got.Relaxed[0] != every {
		t.Fatalf("//%s root stats (%+v, %+v), want %+v", rootTag, got.Exact[0], got.Relaxed[0], every)
	}
	if got := score.CollectStats(c.src, nil, pattern.MustParse("/"+rootTag)); got.Exact[0] != top || got.Relaxed[0] != every {
		t.Fatalf("/%s root stats (%+v, %+v), want (%+v, %+v)", rootTag, got.Exact[0], got.Relaxed[0], top, every)
	}
}

// TestSourceConformance runs both backings, alone and through a p-shard
// Corpus, through the contract and statistics checks on XMark and random
// documents at shard counts 2, 3 and 8; each backing's root ranges are
// held to its whole root stream (checkRootRanges), and the two
// backings' ranges to the partition contract and to each other
// (checkTiling).
func TestSourceConformance(t *testing.T) {
	for _, d := range conformanceDocs(t) {
		t.Run(d.name+"/columns", func(t *testing.T) { checkColumns(t, d.doc) })
		for _, p := range []int{2, 3, 8} {
			runs := make(map[string]*rangeRuns)
			for _, c := range sourceCases(t, d.doc, p) {
				t.Run(fmt.Sprintf("%s/p=%d/%s", d.name, p, c.name), func(t *testing.T) {
					checkContract(t, c, d)
					checkStats(t, c, d)
					if !strings.Contains(c.name, "/") { // a backing, not a Corpus over one
						runs[c.name] = checkRootRanges(t, c, d, p)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/p=%d/tiling", d.name, p), func(t *testing.T) { checkTiling(t, d, p, runs) })
		}
	}
}

// rootLog is a Scorer that logs, in order, every root one run
// materialises: the root's contribution is asked once per root.
type rootLog struct {
	score.Scorer
	roots []uint32
}

func (l *rootLog) Contribution(id int, v score.Variant, ord int32) float64 {
	if id == 0 {
		l.roots = append(l.roots, uint32(ord))
	}
	return l.Scorer.Contribution(id, v, ord)
}

// rangeModes are the relaxations the root ranges are checked under:
// none, and leaf deletion, whose deleted segment walks the range again.
var rangeModes = []relax.Relaxation{relax.None, relax.LeafDeletion, relax.All}

// rootRun is what one LockStep-NoPrune run — which materialises every
// root its cursor streams — did: its roots in cursor order and its Roots
// counter.
type rootRun struct {
	roots []uint32
	count int64
}

// runRoots runs q over src under mode: over every root (p = 0), or as
// shard s of p.
func runRoots(t *testing.T, src index.Source, q *pattern.Query, mode relax.Relaxation, s, p int) (rootRun, string) {
	t.Helper()
	log := &rootLog{Scorer: score.NewTFIDF(src, q, score.Sparse)}
	eng, err := core.New(src, q, core.Config{K: 1, Relax: mode, Algorithm: core.LockStepNoPrune, Scorer: log})
	if err != nil {
		t.Fatal(err)
	}
	shared := core.NewSharedTopK(1, 0)
	pr, err := eng.NewParallelRun(context.Background(), shared, 0)
	if p > 0 {
		pr, err = eng.NewShardRun(context.Background(), shared, s, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	pr.Drive()
	st, err := pr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(log.roots)) != st.Roots {
		t.Fatalf("%s relax=%v shard %d of %d: materialised %d roots, counted %d", q, mode, s, p, len(log.roots), st.Roots)
	}
	return rootRun{log.roots, st.Roots}, eng.RootVia()
}

// rangeRuns are one backing's runs of every shape of a document under
// every rangeModes mode: whole[i] over every root, shards[i][s] as
// shard s, where i = shape*len(rangeModes) + mode.
type rangeRuns struct {
	whole  []rootRun
	shards [][]rootRun
	cands  [][]uint32 // the shape's root candidates, per shape
}

// checkRootRanges runs every shape of d over c, whole and in p shards
// through a p-shard Corpus over it, and holds the shards to the whole:
// their Roots counters sum to its, and, one subtest per shard, shard s
// streams exactly the whole run's roots that fall in its slice of the
// root candidates — the s-th of p equal-count, contiguous slices — in
// the whole run's order, on the posting path (whose climb starts and
// stops at the slice's bounds) and on the scan path alike.
func checkRootRanges(t *testing.T, c sourceCase, d conformanceDoc, p int) *rangeRuns {
	corpus, err := shard.New(c.src, p)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Shards() != p {
		t.Fatalf("Corpus has %d shards, want %d", corpus.Shards(), p)
	}
	out := &rangeRuns{}
	streamed := 0
	for _, xpath := range d.shapes {
		q := pattern.MustParse(xpath)
		out.cands = append(out.cands, c.src.Ords(q.Root().Tag, index.ValueTest{}))
		for _, mode := range rangeModes {
			whole, via := runRoots(t, c.src, q, mode, 0, 0)
			if via != "scan" {
				streamed++
			}
			var sum int64
			shards := make([]rootRun, p)
			for s := range shards {
				shards[s], _ = runRoots(t, corpus, q, mode, s, p)
				sum += shards[s].count
			}
			if sum != whole.count {
				t.Fatalf("%s relax=%v in %d shards: %d roots, whole %d", xpath, mode, p, sum, whole.count)
			}
			out.whole = append(out.whole, whole)
			out.shards = append(out.shards, shards)
		}
	}
	if d.name == "xmark" && streamed == 0 {
		t.Fatal("no shape streamed its roots from postings: the climb's cut was not exercised")
	}
	for s := 0; s < p; s++ {
		t.Run(fmt.Sprintf("range-%d", s), func(t *testing.T) {
			for i, xpath := range d.shapes {
				cands := out.cands[i]
				n := len(cands)
				lo, hi := s*n/p, (s+1)*n/p
				for m, mode := range rangeModes {
					j := i*len(rangeModes) + m
					var want []uint32
					for _, o := range out.whole[j].roots {
						if lo < hi && o >= cands[lo] && (hi == n || o < cands[hi]) {
							want = append(want, o)
						}
					}
					if got := out.shards[j][s].roots; !slices.Equal(got, want) {
						t.Fatalf("%s relax=%v shard %d of %d (candidates [%d, %d) of %d): roots %v, want %v",
							xpath, mode, s, p, lo, hi, n, got, want)
					}
				}
			}
		})
	}
	return out
}

// sortedOrds returns a sorted copy of ords.
func sortedOrds(ords []uint32) []uint32 {
	out := slices.Clone(ords)
	slices.Sort(out)
	return out
}

// checkTiling holds each backing's shard runs to the partition contract
// — every run's roots are distinct, runs are pairwise disjoint and in
// shard order (every root of shard s precedes every root of shard s+1),
// and they concatenate-and-sort to the whole run's — and the snapshot
// reader's runs to the in-memory Index's, shard for shard.
func checkTiling(t *testing.T, d conformanceDoc, p int, runs map[string]*rangeRuns) {
	ref := runs["Index"]
	if ref == nil || len(runs) != 2 {
		t.Fatalf("root ranges ran on %d of 2 backings", len(runs))
	}
	for name, rr := range runs {
		for j, whole := range rr.whole {
			label := fmt.Sprintf("%s: %s relax=%v in %d shards", name, d.shapes[j/len(rangeModes)], rangeModes[j%len(rangeModes)], p)
			var union []uint32
			prevMax := int64(-1)
			for s, sh := range rr.shards[j] {
				sorted := sortedOrds(sh.roots)
				if len(slices.Compact(slices.Clone(sorted))) != len(sorted) {
					t.Fatalf("%s: shard %d materialised a root twice: %v", label, s, sh.roots)
				}
				if len(sorted) > 0 {
					if int64(sorted[0]) <= prevMax {
						t.Fatalf("%s: shard %d starts at root %d, not past shard %d's last %d", label, s, sorted[0], s-1, prevMax)
					}
					prevMax = int64(sorted[len(sorted)-1])
				}
				union = append(union, sorted...)
			}
			if want := sortedOrds(whole.roots); !slices.Equal(union, want) {
				t.Fatalf("%s: shards tile the roots as %v, whole %v", label, union, want)
			}
			if name == "Index" {
				continue
			}
			for s, sh := range rr.shards[j] {
				if want := ref.shards[j][s]; !slices.Equal(sh.roots, want.roots) || sh.count != want.count {
					t.Fatalf("%s: shard %d streams %v, the Index's %v", label, s, sh.roots, want.roots)
				}
			}
		}
	}
}

// checkColumns holds the two backings to one layout: the columns a
// snapshot reader validates over the mapped sections equal, column for
// column, those index.Build fills on the heap. The boot from the
// parser's own columns (store.Build, as Load runs it) holds to
// index.Build and synopsis.Build of the parsed document.
func checkColumns(t *testing.T, doc *xmltree.Document) {
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Cols: doc.Columns()}); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if col := columnDiff(r.Columns, index.Build(doc).Columns); col != "" {
		t.Fatalf("mapped %s differs from the heap's", col)
	}

	var xml bytes.Buffer
	if err := doc.Serialize(&xml); err != nil {
		t.Fatal(err)
	}
	parsed, err := xmltree.Parse(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := xmltree.ParseColumns(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ix, syn := store.Build(c, nil)
	if col := columnDiff(ix.Columns, index.Build(parsed).Columns); col != "" {
		t.Fatalf("booted %s differs from index.Build's", col)
	}
	if syn.Fingerprint() != synopsis.Build(parsed).Fingerprint() {
		t.Fatal("booted synopsis differs from synopsis.Build's")
	}
}

// columnDiff names the first column in which a and b differ, "" when
// they agree (an empty column equals a nil one).
func columnDiff(a, b index.Columns) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i), vb.Field(i)
		if x.Len() != y.Len() || x.Len() > 0 && !reflect.DeepEqual(x.Interface(), y.Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// TestNodeLayout holds every way a document is built — parsed,
// materialized from a snapshot, replayed through Builder, parsed with
// ParseProjected keeping every tag, and as the conformance document was
// built — to one layout. On each, every node's ID renders the child
// indices on its path from a forest root, found by an independent walk;
// its Level is the ID's length; End is the ordinal of its last
// descendant; and the interval test Contains agrees with Dewey
// containment. A random document checks every pair, XMark each node
// against every node its interval could reach, 16 ordinals of slack
// either side, and 16 random others. Every build agrees with the parse
// node for node on Tag, Value, Ord, End, Parent and Children.
func TestNodeLayout(t *testing.T) {
	for _, d := range conformanceDocs(t) {
		var xml bytes.Buffer
		if err := d.doc.Serialize(&xml); err != nil {
			t.Fatal(err)
		}
		parsed, err := xmltree.Parse(bytes.NewReader(xml.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		projected, err := xmltree.ParseProjected(bytes.NewReader(xml.Bytes()), func(string) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := store.WriteSnapshot(&snap, &store.Snapshot{Cols: parsed.Columns()}); err != nil {
			t.Fatal(err)
		}
		r, err := store.ParseSnapshot(snap.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range []struct {
			name string
			doc  *xmltree.Document
		}{{"parsed", parsed}, {"snapshot", r.Document()}, {"builder", rebuild(parsed)}, {"projected", projected.Build()}, {"built", d.doc}} {
			t.Run(d.name+"/"+build.name, func(t *testing.T) {
				checkLayout(t, build.doc, d.name == "xmark")
				sameLayout(t, parsed, build.doc)
			})
		}
	}
}

// rebuild replays doc through xmltree.Builder.
func rebuild(doc *xmltree.Document) *xmltree.Document {
	b := xmltree.NewBuilder()
	var open func(n *xmltree.Node)
	open = func(n *xmltree.Node) {
		for _, c := range n.Children {
			b.Open(c.Tag).Text(c.Value)
			open(c)
			b.Close()
		}
	}
	for _, root := range doc.Roots {
		b.Root(root.Tag).Text(root.Value)
		open(root)
	}
	return b.Doc()
}

// checkLayout holds doc's IDs, levels and intervals to its tree (see
// TestNodeLayout); sample limits the pairwise containment check.
func checkLayout(t *testing.T, doc *xmltree.Document, sample bool) {
	t.Helper()
	nodes := doc.Nodes
	var walk func(n *xmltree.Node, id string)
	walk = func(n *xmltree.Node, id string) {
		if n.ID.String() != id || n.Level() != len(n.ID.Path()) || n.Level() != strings.Count(id, ".")+1 {
			t.Fatalf("%v: ID %s at level %d (%d components), the walk says %s", n, n.ID, n.Level(), len(n.ID.Path()), id)
		}
		for i, c := range n.Children {
			walk(c, id+"."+strconv.Itoa(i))
		}
	}
	for i, root := range doc.Roots {
		walk(root, strconv.Itoa(i))
	}
	for _, n := range nodes {
		last := n
		for len(last.Children) > 0 {
			last = last.Children[len(last.Children)-1]
		}
		if n.End != last.Ord {
			t.Fatalf("%v: End = %d, its last descendant is %d", n, n.End, last.Ord)
		}
	}
	check := func(a, b *xmltree.Node) {
		if dw := a.ID.Path().IsAncestorOf(b.ID.Path()); a.Contains(b) != dw {
			t.Fatalf("%v contains %v: interval says %v, Dewey %v", a, b, a.Contains(b), dw)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, a := range nodes {
		if !sample {
			for _, b := range nodes {
				check(a, b)
			}
			continue
		}
		for o := max(int(a.Ord)-16, 0); o <= min(int(a.End)+16, len(nodes)-1); o++ {
			check(a, nodes[o])
		}
		for i := 0; i < 16; i++ {
			check(a, nodes[rng.Intn(len(nodes))])
		}
	}
}

// sameLayout holds got to want node for node: Tag, Value, Ord, End, and
// Parent and Children by ordinal.
func sameLayout(t *testing.T, want, got *xmltree.Document) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%d nodes, want %d", got.Size(), want.Size())
	}
	ord := func(n *xmltree.Node) int32 {
		if n == nil {
			return -1
		}
		return n.Ord
	}
	ords := func(ns []*xmltree.Node) []int32 {
		out := make([]int32, len(ns))
		for i, n := range ns {
			out[i] = n.Ord
		}
		return out
	}
	for i, a := range want.Nodes {
		b := got.Nodes[i]
		if a.Tag != b.Tag || a.Value != b.Value || a.Ord != b.Ord || a.End != b.End || ord(a.Parent) != ord(b.Parent) ||
			!slices.Equal(ords(a.Children), ords(b.Children)) {
			t.Fatalf("node %d: %v (end %d, parent %d, children %v), want %v (end %d, parent %d, children %v)",
				i, b, b.End, ord(b.Parent), ords(b.Children), a, a.End, ord(a.Parent), ords(a.Children))
		}
	}
}

// TestPostingCachesBounded holds every source that caches (tag, value
// test) posting lists — Index, on either backing — to one bound: the value in the key comes from the request, so 5 000
// distinct constants must leave at most lru.PostingsCap lists cached.
// A cached list (Ords) is recognised by its backing array: a hit hands
// out the same slice, a rebuilt entry a new one. Results must equal a
// fresh filter throughout, and repeating one key must allocate nothing.
func TestPostingCachesBounded(t *testing.T) {
	d := conformanceDocs(t)[0]
	const tag, constants = "quantity", 5000
	vtFor := func(i int) index.ValueTest { return index.Test("!=", fmt.Sprintf("c%04d", i)) }
	for _, c := range sourceCases(t, d.doc, 4) {
		t.Run(c.name, func(t *testing.T) {
			var want []uint32
			for _, n := range c.doc.Nodes {
				if n.Tag == tag {
					want = append(want, uint32(n.Ord)) // no quantity equals any constant
				}
			}
			if len(want) == 0 {
				t.Fatal("the document holds no quantity node")
			}
			backing := make([]*uint32, constants)
			for i := range backing {
				got := c.src.Ords(tag, vtFor(i))
				if !slices.Equal(got, want) {
					t.Fatalf("Ords(%v) = %v, want %v", vtFor(i), got, want)
				}
				backing[i] = &got[0]
			}
			// Newest first, so every list still cached is probed before a
			// rebuild can evict it.
			cached := 0
			for i := constants - 1; i >= 0; i-- {
				if &c.src.Ords(tag, vtFor(i))[0] == backing[i] {
					cached++
				}
			}
			if cached == 0 || cached > lru.PostingsCap {
				t.Fatalf("%d of %d posting lists still cached, want 1..%d", cached, constants, lru.PostingsCap)
			}
			for _, vt := range []index.ValueTest{vtFor(0), index.ValueEq("1"), index.ValueEq("no such quantity")} {
				c.src.Ords(tag, vt)
				if allocs := testing.AllocsPerRun(100, func() { c.src.Ords(tag, vt) }); allocs != 0 {
					t.Errorf("repeated Ords(%v) allocates %v times per call", vt, allocs)
				}
			}
		})
	}
}
