package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/keyword"
	"repro/internal/shard"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func genDoc(t testing.TB, items int) *xmltree.Document {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 5, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// fullSnapshot builds a Snapshot carrying every optional section: the
// synopsis and an item-scope keyword index.
func fullSnapshot(t testing.TB, doc *xmltree.Document) *Snapshot {
	t.Helper()
	return &Snapshot{
		Doc:      doc,
		Synopsis: synopsis.Build(doc).Flatten(),
		Keyword:  []*keyword.Flat{keyword.Build(doc, "item").Flatten()},
	}
}

func writeSnap(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parseSnap(t testing.TB, raw []byte) *SnapshotReader {
	t.Helper()
	r, err := ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSnapshotRoundTripStructure(t *testing.T) {
	doc := genDoc(t, 30)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	got := r.Document()
	if got.Size() != doc.Size() {
		t.Fatalf("size %d != %d", got.Size(), doc.Size())
	}
	if len(got.Roots) != len(doc.Roots) {
		t.Fatalf("roots %d != %d", len(got.Roots), len(doc.Roots))
	}
	for i := range doc.Nodes {
		a, b := doc.Nodes[i], got.Nodes[i]
		if a.Tag != b.Tag || a.Value != b.Value || !a.ID.Equal(b.ID) || a.Ord != b.Ord {
			t.Fatalf("node %d: %v vs %v", i, a, b)
		}
		if (a.Parent == nil) != (b.Parent == nil) {
			t.Fatalf("node %d parent presence mismatch", i)
		}
		if a.Parent != nil && a.Parent.Ord != b.Parent.Ord {
			t.Fatalf("node %d parent ord %d vs %d", i, a.Parent.Ord, b.Parent.Ord)
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("node %d children %d vs %d", i, len(a.Children), len(b.Children))
		}
		for j := range a.Children {
			if a.Children[j].Ord != b.Children[j].Ord {
				t.Fatalf("node %d child %d ord mismatch", i, j)
			}
		}
	}
}

func TestSnapshotSynopsisKeyword(t *testing.T) {
	doc := genDoc(t, 40)
	snap := fullSnapshot(t, doc)
	r := parseSnap(t, writeSnap(t, snap))

	want := synopsis.Build(doc)
	if r.Synopsis() == nil {
		t.Fatal("snapshot lost the synopsis")
	}
	if r.Synopsis().Fingerprint() != want.Fingerprint() {
		t.Fatal("persisted synopsis fingerprint diverges from a fresh build")
	}

	scopes := r.KeywordScopes()
	if len(scopes) != 1 || scopes[0] != "item" {
		t.Fatalf("keyword scopes = %v", scopes)
	}
	built := keyword.Build(doc, "item")
	got, ok, err := r.Keyword("item")
	if err != nil || !ok {
		t.Fatalf("Keyword(item): ok=%v err=%v", ok, err)
	}
	if got.Scopes() != built.Scopes() {
		t.Fatalf("scopes %d vs %d", got.Scopes(), built.Scopes())
	}
	for _, w := range []string{"gold", "a", "character", "xyzzy"} {
		if got.IDF(w) != built.IDF(w) {
			t.Fatalf("IDF(%s): %v vs %v", w, got.IDF(w), built.IDF(w))
		}
		a, b := built.Postings(w), got.Postings(w)
		if len(a) != len(b) {
			t.Fatalf("Postings(%s): %d vs %d", w, len(a), len(b))
		}
		for i := range a {
			if a[i].TF != b[i].TF || a[i].Node.Ord != b[i].Node.Ord {
				t.Fatalf("Postings(%s)[%d] mismatch", w, i)
			}
		}
	}
	if _, ok, _ := r.Keyword("mail"); ok {
		t.Fatal("unexpected keyword index for unpersisted scope")
	}
}

// TestSnapshotSkipsRetiredLayoutSections: images written while shard
// layouts were persisted carry kind-19/20 sections. The reader knows no
// such kinds any more and must skip them, serving the same postings.
func TestSnapshotSkipsRetiredLayoutSections(t *testing.T) {
	doc := genDoc(t, 20)
	payloads, err := buildSections(fullSnapshot(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	spine, units := &leBuf{}, &leBuf{}
	spine.u32(0)
	for _, w := range []uint32{1, 1} { // one part: one unit, ordinal 1
		units.u32(w)
	}
	payloads = append(payloads,
		secPayload{kind: 19, shard: 1, count: 1, data: spine.b},
		secPayload{kind: 20, shard: 1, count: 2, data: units.b})
	var buf bytes.Buffer
	if err := writeSections(&buf, payloads); err != nil {
		t.Fatal(err)
	}
	old := parseSnap(t, buf.Bytes())
	fresh := parseSnap(t, writeSnap(t, fullSnapshot(t, doc)))
	if old.SizeBytes() <= fresh.SizeBytes() {
		t.Fatalf("image with layout sections is %d bytes, without %d", old.SizeBytes(), fresh.SizeBytes())
	}
	ords := func(ns []*xmltree.Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = int(n.Ord)
		}
		return out
	}
	for _, tag := range doc.Tags() {
		for _, vt := range []index.ValueTest{{}, index.ValueEq("1"), index.Test("contains", "a")} {
			if got, want := ords(old.NodesMatching(tag, vt)), ords(fresh.NodesMatching(tag, vt)); !slices.Equal(got, want) {
				t.Fatalf("NodesMatching(%q, %v) = %v with layout sections, %v without", tag, vt, got, want)
			}
			root := old.Document().Roots[0]
			got := ords(old.AppendCandidates(nil, root, dewey.Descendant, tag, vt))
			want := ords(fresh.AppendCandidates(nil, fresh.Document().Roots[0], dewey.Descendant, tag, vt))
			if !slices.Equal(got, want) {
				t.Fatalf("AppendCandidates(%q, %v) = %v with layout sections, %v without", tag, vt, got, want)
			}
		}
	}
	if old.Synopsis().Fingerprint() != fresh.Synopsis().Fingerprint() {
		t.Fatal("synopsis diverges behind the layout sections")
	}
}

func TestSnapshotSaveOpenMmap(t *testing.T) {
	doc := genDoc(t, 20)
	path := filepath.Join(t.TempDir(), "snap.wpxs")
	if err := SaveSnapshot(path, fullSnapshot(t, doc)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if runtime.GOOS == "linux" && !r.Mapped() {
		t.Fatal("expected an mmapped reader on linux")
	}
	if r.SizeBytes()%1 != 0 || r.SizeBytes() == 0 {
		t.Fatal("empty snapshot file")
	}
	if r.Document().Size() != doc.Size() {
		t.Fatalf("size %d != %d", r.Document().Size(), doc.Size())
	}
	ix := index.Build(doc)
	for _, tag := range []string{"item", "name", "text"} {
		if len(ix.Nodes(tag)) != len(r.Nodes(tag)) {
			t.Fatalf("Nodes(%s) diverges", tag)
		}
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.wpxs")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestSnapshotProbeAllocs pins the tentpole's zero-allocation property:
// steady-state descendant probes against the mapped postings allocate
// nothing.
func TestSnapshotProbeAllocs(t *testing.T) {
	doc := genDoc(t, 40)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	items := r.Nodes("item")
	if len(items) == 0 {
		t.Fatal("no items")
	}
	anchor := items[0]
	var val string
	for _, n := range r.Nodes("name") {
		if n.Value != "" {
			val = n.Value
			break
		}
	}
	vts := []index.ValueTest{
		index.ValueEq(""),
		index.ValueEq(val),
		index.Test("contains", "a"),
		index.Test(">", "10"),
	}
	scratch := make([]*xmltree.Node, 0, len(doc.Nodes))
	probe := func() {
		for _, vt := range vts {
			scratch = r.AppendCandidates(scratch[:0], anchor, dewey.Descendant, "name", vt)
			scratch = r.AppendCandidates(scratch[:0], anchor, dewey.Child, "name", vt)
		}
	}
	probe() // warm scratch growth
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Fatalf("snapshot probe path allocates %.1f per run, want 0", allocs)
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	doc := genDoc(t, 10)
	raw := writeSnap(t, fullSnapshot(t, doc))
	if _, err := ParseSnapshot(raw); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	mut := func(off int, b byte) []byte {
		m := append([]byte(nil), raw...)
		m[off] ^= b
		return m
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     raw[:headerSize-1],
		"bad magic":        mut(0, 0xFF),
		"bad version":      mut(4, 0xFF),
		"bad page size":    mut(12, 0xFF),
		"bad file size":    mut(16, 0xFF),
		"bad crc":          mut(24, 0xFF),
		"bad sec count":    mut(28, 0xFF),
		"table flip":       mut(headerSize+8, 0x01),
		"body flip":        mut(len(raw)/2, 0x01),
		"tail flip":        mut(len(raw)-1, 0x01),
		"truncated":        raw[:len(raw)/2],
		"truncated 1 byte": raw[:len(raw)-1],
		"extended":         append(append([]byte(nil), raw...), 0),
	}
	for name, data := range cases {
		if _, err := ParseSnapshot(data); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestSnapshotRejectsUnrenumberedDoc(t *testing.T) {
	doc := genDoc(t, 5)
	doc.Nodes[2].Ord = 99
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{Doc: doc}); err == nil {
		t.Fatal("unrenumbered document accepted")
	}
}

func TestSnapshotEmptyAndForest(t *testing.T) {
	empty := xmltree.NewDocument()
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: empty}))
	if r.Document().Size() != 0 || len(r.Nodes("x")) != 0 {
		t.Fatal("empty document snapshot broken")
	}

	forest, err := xmltree.ParseString(`<a><b>1</b></a><a><c>2</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	r = parseSnap(t, writeSnap(t, &Snapshot{Doc: forest}))
	if len(r.Document().Roots) != 2 {
		t.Fatalf("roots = %d", len(r.Document().Roots))
	}
}

// TestLegacyV1FileNamed pins the retired-format diagnostic: a WPX1 file
// (any length — v1 images were often shorter than a WPXS header) fails
// with an error naming the format and the command that regenerates it,
// not a bare magic mismatch.
func TestLegacyV1FileNamed(t *testing.T) {
	for _, raw := range [][]byte{[]byte("WPX1"), append([]byte("WPX1\xbe\x065\x04site"), make([]byte, 200)...)} {
		_, err := ParseSnapshot(raw)
		if err == nil || !strings.Contains(err.Error(), "retired v1 .wpx format") || !strings.Contains(err.Error(), "-save-snapshot") {
			t.Fatalf("v1 image of %d bytes: error %v does not name the retired format and its regeneration", len(raw), err)
		}
	}
	path := filepath.Join(t.TempDir(), "old.wpx")
	if err := os.WriteFile(path, []byte("WPX1\x01\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path); err == nil || !strings.Contains(err.Error(), "retired v1 .wpx format") {
		t.Fatalf("OpenSnapshot on a v1 file: %v", err)
	}
}

// TestSnapshotFirstTouchConcurrentClimb: the node slab is built on the
// first touch, which a sharded evaluation makes from several engines at
// once — each fetching its member view's postings and climbing Parent links,
// as the root server's posting stream does. Every goroutine must see
// one fully wired slab (run under -race).
func TestSnapshotFirstTouchConcurrentClimb(t *testing.T) {
	doc := genDoc(t, 60)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	// The partition comes from the built document — ordinals are the
	// snapshot's — so the views below are the reader's first touch.
	const p = 4
	c, err := shard.Split(doc, p)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int32, len(doc.Nodes))
	for _, s := range c.Spine() {
		owner[s.Ord] = p
	}
	for _, part := range c.Parts() {
		for _, u := range part.Units {
			owner[u.Ord] = int32(part.ID)
			for _, n := range u.Descendants() {
				owner[n.Ord] = int32(part.ID)
			}
		}
	}
	want := 0
	for _, n := range doc.Nodes {
		if n.Tag == "keyword" {
			want++
		}
	}
	got := make([]int, p)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kw := range index.NewView(r, owner, i).Nodes("keyword") {
				top := kw
				for a := kw.Parent; a != nil; a = a.Parent {
					if !a.ID.IsAncestorOf(kw.ID) || r.Document().Nodes[a.Ord] != a {
						t.Errorf("part %d: keyword %d climbs through a foreign node %v", i, kw.Ord, a)
						return
					}
					top = a
				}
				if top.Tag != "site" {
					t.Errorf("part %d: keyword %d climbs to %v", i, kw.Ord, top)
					return
				}
				got[i]++
			}
		}()
	}
	wg.Wait()
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != want || want == 0 {
		t.Fatalf("parts hold %d keyword postings, document %d", sum, want)
	}
}
