package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/relax"
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
// synopsis.
func fullSnapshot(t testing.TB, doc *xmltree.Document) *Snapshot {
	t.Helper()
	return &Snapshot{Cols: doc.Columns(), Synopsis: synopsis.Build(doc).Flatten()}
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
	r := parseSnap(t, writeSnap(t, &Snapshot{Cols: doc.Columns()}))
	sameNodes(t, doc, r.Document())
}

// sameNodes holds a materialized snapshot to the document it was written
// from, node for node: tag, value, ordinal, interval, derived Dewey ID,
// level, parent and children (by ordinal), and the forest's roots.
func sameNodes(t testing.TB, want, got *xmltree.Document) {
	t.Helper()
	if got.Size() != want.Size() || len(got.Roots) != len(want.Roots) {
		t.Fatalf("%d nodes in %d trees, want %d in %d", got.Size(), len(got.Roots), want.Size(), len(want.Roots))
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
	if !slices.Equal(ords(got.Roots), ords(want.Roots)) {
		t.Fatalf("roots %v, want %v", ords(got.Roots), ords(want.Roots))
	}
	for i, a := range want.Nodes {
		b := got.Nodes[i]
		if a.Tag != b.Tag || a.Value != b.Value || a.Ord != b.Ord || a.End != b.End ||
			a.ID.String() != b.ID.String() || a.Level() != b.Level() || ord(a.Parent) != ord(b.Parent) {
			t.Fatalf("node %d: %v (end %d, level %d, parent %d), want %v (end %d, level %d, parent %d)",
				i, b, b.End, b.Level(), ord(b.Parent), a, a.End, a.Level(), ord(a.Parent))
		}
		if !slices.Equal(ords(a.Children), ords(b.Children)) {
			t.Fatalf("node %d: children %v, want %v", i, ords(b.Children), ords(a.Children))
		}
	}
}

// FuzzSnapshotRoundTrip: whatever Parse accepts, a snapshot of it
// opens to the same node slab, to columns that render every ordinal's
// path, Dewey ID and level as the slab does, with the levels and
// positions open derives equal to the scanner's, and to the posting
// columns index.Build fills for the parsed document, column for column —
// and so does the concurrent boot from the parser's own columns (Build,
// as Load runs it), whose synopsis is synopsis.Build's.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, xml := range []string{
		`<a/>`,
		`<a/><b x="1"/>`,
		`<a><b>x</b><b>y<c/>z</b></a>`,
		`<site><item id="1" featured="yes"><name>gold</name><desc>aa <b>bb</b> cc</desc></item><item/></site>`,
	} {
		f.Add(xml)
	}
	f.Fuzz(func(t *testing.T, xml string) {
		doc, err := xmltree.ParseString(xml)
		if err != nil {
			return
		}
		r, err := ParseSnapshot(writeSnap(t, &Snapshot{Cols: doc.Columns(), Synopsis: synopsis.Build(doc).Flatten()}))
		if err != nil {
			t.Fatalf("snapshot of a parsed document rejected: %v", err)
		}
		sameNodes(t, doc, r.Document())
		sameRender(t, doc, r.Cols())
		want := index.Build(doc).Columns
		if col := columnDiff(r.Columns, want); col != "" {
			t.Fatalf("snapshot %s differs from index.Build's", col)
		}
		c, err := xmltree.ParseColumns(strings.NewReader(xml))
		if err != nil {
			t.Fatalf("ParseColumns refuses what Parse accepts: %v", err)
		}
		if !slices.Equal(r.Cols().Level, c.Level) || !slices.Equal(r.Cols().Pos, c.Pos) {
			t.Fatalf("open derives levels %v and positions %v, the scanner %v and %v", r.Cols().Level, r.Cols().Pos, c.Level, c.Pos)
		}
		ix, syn := Build(c, nil)
		sameNodes(t, doc, ix.Document())
		if col := columnDiff(ix.Columns, want); col != "" {
			t.Fatalf("booted %s differs from index.Build's", col)
		}
		if syn.Fingerprint() != synopsis.Build(doc).Fingerprint() {
			t.Fatal("booted synopsis differs from synopsis.Build's")
		}
	})
}

// sameRender holds what cols render for every ordinal — path, Dewey ID
// and level, as the daemon renders answers — to the nodes of want.
func sameRender(t testing.TB, want *xmltree.Document, cols *xmltree.Columns) {
	t.Helper()
	for i, n := range want.Nodes {
		o := int32(i)
		if cols.Path(o) != n.Path() || string(cols.AppendDewey(nil, o)) != n.ID.String() || int(cols.Level[o]) != n.Level() {
			t.Fatalf("node %d: columns render %s @%s level %d, the slab %s @%s level %d",
				i, cols.Path(o), cols.AppendDewey(nil, o), cols.Level[o], n.Path(), n.ID, n.Level())
		}
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

// TestSnapshotSynopsis: the synopsis read back from the snapshot bytes
// matches a fresh build, fingerprint for fingerprint and on 200 random
// PathStats queries.
func TestSnapshotSynopsis(t *testing.T) {
	doc := genDoc(t, 40)
	snap := fullSnapshot(t, doc)
	r := parseSnap(t, writeSnap(t, snap))

	want := synopsis.Build(doc)
	got := r.Synopsis()
	if got == nil {
		t.Fatal("snapshot lost the synopsis")
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("persisted synopsis fingerprint diverges from a fresh build")
	}
	if got.NodeCount() != want.NodeCount() || got.PathCount() != want.PathCount() {
		t.Fatalf("persisted synopsis counts diverge: nodes %d vs %d, paths %d vs %d",
			got.NodeCount(), want.NodeCount(), got.PathCount(), want.PathCount())
	}
	rng := rand.New(rand.NewSource(7))
	tags := slices.Clone(doc.Columns().Tags)
	slices.Sort(tags)
	for i := 0; i < 200; i++ {
		anchor, tag := tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))]
		pp := relax.PathPredicate{MinLevels: rng.Intn(4), Exact: rng.Intn(2) == 0}
		if a, b := want.PathStats(anchor, pp, tag), got.PathStats(anchor, pp, tag); a != b {
			t.Fatalf("PathStats(%s, %+v, %s): persisted %+v, fresh %+v", anchor, pp, tag, b, a)
		}
	}
}

// TestSnapshotSkipsRetiredLayoutSections: images written while shard
// layouts were persisted carry kind-19/20 sections. The reader knows no
// such kinds any more and must skip them, serving the same postings.
func TestSnapshotSkipsRetiredLayoutSections(t *testing.T) {
	spine, units := &leBuf{}, &leBuf{}
	spine.u32(0)
	for _, w := range []uint32{1, 1} { // one part: one unit, ordinal 1
		units.u32(w)
	}
	checkSkipsRetired(t, genDoc(t, 20),
		secPayload{kind: 19, shard: 1, count: 1, data: spine.b}, secPayload{kind: 20, shard: 1, count: 2, data: units.b})
}

// TestSnapshotSkipsRetiredDeweySections: images written while Dewey IDs
// were stored carry every node's components under kinds 8 (offsets) and
// 9 (components). Nodes now derive their IDs, so the reader skips both.
func TestSnapshotSkipsRetiredDeweySections(t *testing.T) {
	doc := genDoc(t, 20)
	off, comps := &leBuf{}, &leBuf{}
	off.u32(0)
	m := 0
	for _, n := range doc.Nodes {
		for _, c := range n.ID.Path() {
			comps.s64(int64(c))
			m++
		}
		off.u32(uint32(m))
	}
	checkSkipsRetired(t, doc,
		secPayload{kind: 8, shard: -1, count: uint64(len(doc.Nodes) + 1), data: off.b}, secPayload{kind: 9, shard: -1, count: uint64(m), data: comps.b})
}

// TestSnapshotSkipsRetiredKeywordSections: images written while keyword
// top-k existed carry a kind-18 keyword index per scope, and kind 32, each
// tag's count of text-carrying nodes, beside the synopsis. The reader
// skips either one alone and both together.
func TestSnapshotSkipsRetiredKeywordSections(t *testing.T) {
	doc := genDoc(t, 20)
	kw := &leBuf{} // scope tag 0 with no scopes, words or entries
	for range 8 {
		kw.u32(0)
	}
	tags := synopsis.Build(doc).Flatten().Tags
	valued := &leBuf{}
	for _, tag := range tags {
		n := 0
		for _, nd := range doc.Nodes {
			if nd.Tag == tag && nd.Value != "" {
				n++
			}
		}
		valued.s64(int64(n))
	}
	keyword := secPayload{kind: 18, shard: 0, count: 0, data: kw.b}
	tagValued := secPayload{kind: 32, shard: -1, count: uint64(len(tags)), data: valued.b}
	t.Run("kind-18", func(t *testing.T) { checkSkipsRetired(t, doc, keyword) })
	t.Run("kind-32", func(t *testing.T) { checkSkipsRetired(t, doc, tagValued) })
	t.Run("both", func(t *testing.T) { checkSkipsRetired(t, doc, keyword, tagValued) })
}

// TestSnapshotWriterOmitsRetiredKinds: the writer emits none of the
// reserved kinds, so a fresh image carries nothing the reader skips.
func TestSnapshotWriterOmitsRetiredKinds(t *testing.T) {
	payloads, err := buildSections(fullSnapshot(t, genDoc(t, 20)))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []uint32{8, 9, 18, 19, 20, 32} {
		t.Run("kind-"+strconv.Itoa(int(kind)), func(t *testing.T) {
			for _, p := range payloads {
				if p.kind == kind {
					t.Fatalf("writer emitted reserved kind %d (shard %d, %d bytes)", kind, p.shard, len(p.data))
				}
			}
		})
	}
}

// checkSkipsRetired writes doc's snapshot with and without the retired
// sections, and holds the two readers to the same nodes, postings,
// probes and synopsis.
func checkSkipsRetired(t *testing.T, doc *xmltree.Document, retired ...secPayload) {
	t.Helper()
	payloads, err := buildSections(fullSnapshot(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSections(&buf, append(payloads, retired...)); err != nil {
		t.Fatal(err)
	}
	old := parseSnap(t, buf.Bytes())
	fresh := parseSnap(t, writeSnap(t, fullSnapshot(t, doc)))
	if old.SizeBytes() <= fresh.SizeBytes() {
		t.Fatalf("image with retired sections is %d bytes, without %d", old.SizeBytes(), fresh.SizeBytes())
	}
	sameNodes(t, fresh.Document(), old.Document())
	ords := func(ns []*xmltree.Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = int(n.Ord)
		}
		return out
	}
	for _, tag := range doc.Columns().Tags {
		for _, vt := range []index.ValueTest{{}, index.ValueEq("1"), index.Test("contains", "a")} {
			if got, want := ords(old.NodesMatching(tag, vt)), ords(fresh.NodesMatching(tag, vt)); !slices.Equal(got, want) {
				t.Fatalf("NodesMatching(%q, %v) = %v with retired sections, %v without", tag, vt, got, want)
			}
			root := old.Document().Roots[0]
			got := ords(old.AppendCandidates(nil, root, dewey.Descendant, tag, vt))
			want := ords(fresh.AppendCandidates(nil, fresh.Document().Roots[0], dewey.Descendant, tag, vt))
			if !slices.Equal(got, want) {
				t.Fatalf("AppendCandidates(%q, %v) = %v with retired sections, %v without", tag, vt, got, want)
			}
		}
	}
	if old.Synopsis().Fingerprint() != fresh.Synopsis().Fingerprint() {
		t.Fatal("synopsis diverges behind the retired sections")
	}
}

// TestSnapshotBytesPerDocByte pins the snapshot's size against its
// source XML: XMark seed 1 at 1 MB as SaveSnapshot writes it (document,
// postings, synopsis) takes at most 2.1 bytes per document byte (1.92
// measured; 1.66 at 8 MB, where fixed costs weigh less). Stored Dewey IDs
// took it to 4.32.
func TestSnapshotBytesPerDocByte(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	docBytes := xml.Len()
	doc, err := xmltree.Parse(&xml)
	if err != nil {
		t.Fatal(err)
	}
	raw := writeSnap(t, &Snapshot{Cols: doc.Columns(), Synopsis: synopsis.Build(doc).Flatten()})
	if ratio := float64(len(raw)) / float64(docBytes); ratio > 2.1 {
		t.Fatalf("snapshot is %d bytes for a %d-byte document: %.2f per document byte, want at most 2.1", len(raw), docBytes, ratio)
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
	r := parseSnap(t, writeSnap(t, &Snapshot{Cols: doc.Columns()}))
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

// TestSnapshotRejectsMalformedTree: the engine climbs the parent column
// and decides containment on the subtree column, so open refuses a
// checksummed image whose parent follows its child, whose subtree leaves
// the document or its parent's, or whose node lies inside an interval
// other than its ancestors' — with an error naming the column, not a
// wrong answer at first touch.
func TestSnapshotRejectsMalformedTree(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c/></b><d/></a>`) // ordinals a0 b1 c2 d3
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kind uint32
		node int
		val  uint32 // parent ordinal + 1, or subtree size
		want string
	}{
		{"parent after the node", secNodeParents, 1, 4, "parent"},
		{"node its own parent", secNodeParents, 2, 3, "parent"},
		{"empty subtree", secSubtree, 3, 0, "subtree"},
		{"subtree past the end", secSubtree, 2, 3, "subtree"},
		{"subtree past its parent's", secSubtree, 2, 2, "children do not end"},
		{"node inside a sibling's subtree", secSubtree, 1, 3, "next child"},
		{"root inside another node's subtree", secNodeParents, 2, 0, "next child"},
	} {
		payloads, err := buildSections(&Snapshot{Cols: doc.Columns()})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if p.kind == c.kind {
				binary.LittleEndian.PutUint32(p.data[4*c.node:], c.val)
			}
		}
		var buf bytes.Buffer
		if err := writeSections(&buf, payloads); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSnapshot(buf.Bytes()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open says %v, want an error naming the %s", c.name, err, c.want)
		}
	}
}

// TestSnapshotRejectsMalformedPostings: the probe trusts the posting
// columns, so open refuses a checksummed image whose postings break the
// layout — each defect with an error naming the section that holds it.
func TestSnapshotRejectsMalformedPostings(t *testing.T) {
	// Ordinals a0 b1 b2 c3; tags a b c; keys (b,x)→[1] (b,y)→[2] (c,x)→[3].
	doc, err := xmltree.ParseString(`<a><b>x</b><b>y</b><c>x</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		kind         uint32
		entry        int
		val          uint32
		want, reason string
	}{
		{"descending tag posting", secTagPostOrds, 2, 0, "tag postings section", "do not ascend"},
		{"posting of another tag", secTagPostOrds, 2, 3, "tag postings section", "tag id 2, not 1"},
		{"out-of-range ordinal", secValPostOrds, 2, 99, "value postings section", "ordinal 99"},
		{"unsorted value keys", secValPostKeys, 0, 'z', "value postings keys section", "not sorted"},
		{"empty value group", secValPostOff, 2, 1, "value postings offsets section", "empty value postings"},
	} {
		payloads, err := buildSections(&Snapshot{Cols: doc.Columns()})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			switch {
			case p.kind != c.kind:
			case c.kind == secValPostKeys: // a byte blob: "xyx" becomes "zyx"
				p.data[c.entry] = byte(c.val)
			default:
				binary.LittleEndian.PutUint32(p.data[4*c.entry:], c.val)
			}
		}
		var buf bytes.Buffer
		if err := writeSections(&buf, payloads); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSnapshot(buf.Bytes()); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: open says %v, want an error naming the %s and %q", c.name, err, c.want, c.reason)
		}
	}
}

// TestSnapshotReplacedUnderLiveReader pins the replacement contract: a
// snapshot file is immutable once written and replaced only by
// SaveSnapshot's rename, which leaves the inode an open mapping holds
// alive. The open reader keeps answering from the old document; a fresh
// open sees the new one.
func TestSnapshotReplacedUnderLiveReader(t *testing.T) {
	old, repl := genDoc(t, 20), genDoc(t, 5)
	path := filepath.Join(t.TempDir(), "snap.wpxs")
	if err := SaveSnapshot(path, fullSnapshot(t, old)); err != nil {
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
	probe := func(r *SnapshotReader) []string {
		var out []string
		for _, n := range r.AppendCandidates(nil, r.Document().Roots[0], dewey.Descendant, "name", index.ValueTest{}) {
			out = append(out, n.ID.String()+"="+n.Value)
		}
		return out
	}
	before := probe(r)
	if err := SaveSnapshot(path, fullSnapshot(t, repl)); err != nil {
		t.Fatal(err)
	}
	if after := probe(r); !slices.Equal(after, before) {
		t.Fatalf("live reader answers %v after the replacement, %v before", after, before)
	}
	sameNodes(t, old, r.Document())
	fresh, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	sameNodes(t, repl, fresh.Document())
	if got := probe(fresh); slices.Equal(got, before) {
		t.Fatal("a fresh open still answers from the replaced document")
	}
}

func TestSnapshotEmptyAndForest(t *testing.T) {
	empty := xmltree.NewBuilder().Doc()
	r := parseSnap(t, writeSnap(t, &Snapshot{Cols: empty.Columns()}))
	if r.Document().Size() != 0 || len(r.Nodes("x")) != 0 {
		t.Fatal("empty document snapshot broken")
	}

	forest, err := xmltree.ParseString(`<a><b>1</b></a><a><c>2</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	r = parseSnap(t, writeSnap(t, &Snapshot{Cols: forest.Columns()}))
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

// TestSnapshotConcurrentViewClimb: a sharded evaluation runs several
// runs at once over one snapshot, one per range of the query's roots —
// each taking its range's cut of the postings and climbing the parent
// column, as the root server's posting stream does. Every goroutine
// must climb the one set of columns open validated, through enclosing
// intervals to the tree root, and the ranges together must hold every
// posting once (run under -race).
func TestSnapshotConcurrentViewClimb(t *testing.T) {
	doc := genDoc(t, 60)
	r := parseSnap(t, writeSnap(t, &Snapshot{Cols: doc.Columns()}))
	cols := r.Cols()
	items := r.Ords("item", index.ValueTest{})
	keywords := r.Ords("keyword", index.ValueTest{})
	const p = 4
	// Range s holds the ordinals from its first item up to the next
	// range's; the first range starts at the document's start.
	bound := func(s int) uint32 {
		switch {
		case s == 0:
			return 0
		case s == p:
			return uint32(cols.Len())
		}
		return items[s*len(items)/p]
	}
	got := make([]int, p)
	var wg sync.WaitGroup
	for s := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, _ := slices.BinarySearch(keywords, bound(s))
			hi, _ := slices.BinarySearch(keywords, bound(s+1))
			for _, o := range keywords[lo:hi] {
				kw, top := int32(o), int32(o)
				for a := cols.Parent(kw); a >= 0; a = cols.Parent(a) {
					if !cols.Contains(a, kw) {
						t.Errorf("range %d: keyword %d climbs through a foreign node %d", s, kw, a)
						return
					}
					top = a
				}
				if cols.Tag(top) != "site" {
					t.Errorf("range %d: keyword %d climbs to %s", s, kw, cols.Tag(top))
					return
				}
				got[s]++
			}
		}()
	}
	wg.Wait()
	want := 0
	for _, n := range doc.Nodes {
		if n.Tag == "keyword" {
			want++
		}
	}
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != want || want == 0 {
		t.Fatalf("root ranges hold %d keyword postings, document %d", sum, want)
	}
}
