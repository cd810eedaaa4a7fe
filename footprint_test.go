package whirlpool

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dewey"
	"repro/internal/pattern"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestLoadFootprint pins what a built corpus costs on XMark seed 1 at
// 1 MB. A loaded database — the node columns, the index and the
// synopsis, and no node slab — holds at most 67 bytes of live heap per
// node: one copy of each tag name, one value blob, a flat synopsis. It
// reads 53.7; with the 88-byte node slab beside the columns it read
// 129.6, and stored IDs and per-node strings took 185. Load makes at
// most 0.05 allocations per node: the parser scans the bytes straight
// into the columns, where encoding/xml's tokens made 6.13, and the
// postings and the synopsis are built from the columns. It reads 0.019.
// And the synopsis pass allocates at most one object per two nodes: its
// counters live in frames reused by depth, not in a map per node (4.55
// allocations per node), and it writes flat columns, not a trie of maps
// (0.21); it reads 0.006.
func TestLoadFootprint(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Load(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := float64(db.Size())
	t.Logf("Load: %.1f heap bytes and %.4f allocations per node", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/nodes, float64(after.Mallocs-before.Mallocs)/nodes)
	if perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nodes; perNode > 67 {
		t.Errorf("a loaded database holds %.1f heap bytes per node, want at most 67", perNode)
	}
	if perNode := float64(after.Mallocs-before.Mallocs) / nodes; perNode > 0.05 {
		t.Errorf("Load makes %.3f allocations per node, want at most 0.05", perNode)
	}
	allocs := testing.AllocsPerRun(1, func() { synopsis.Build(db.Document()) })
	if perNode := allocs / nodes; perNode > 0.5 {
		t.Errorf("synopsis.Build makes %.2f allocations per node, want at most 0.5", perNode)
	}
	runtime.KeepAlive(db)
	// The XML stays live through the measurement, so the delta is not
	// offset by the document buffer being collected.
	runtime.KeepAlive(xml.Bytes())
}

// TestOpenFootprint pins what opening the same corpus's snapshot costs,
// measured the way TestLoadFootprint measures a load. Open validates
// the mapped columns and derives the level and position columns plus
// one string header per value key: at most 15.5 bytes per node. It
// reads 12.7 bytes and 0.0011 allocations per node; node columns,
// postings, values and the synopsis stay in the mapped file. Building
// the node slab as well read 108.9 bytes, and opening the synopsis as a
// trie of maps took 4.7 more bytes and 0.049 more allocations. A load
// holds 53.7 bytes, as it also keeps the node columns, the postings,
// the synopsis and the value blob on the heap, and makes 0.019
// allocations per node: the allocations are bounded, not compared.
func TestOpenFootprint(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	measure := func(f func() *Database) (*Database, float64, float64) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := f()
		runtime.GC()
		runtime.ReadMemStats(&after)
		nodes := float64(db.Size())
		return db, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nodes, float64(after.Mallocs-before.Mallocs) / nodes
	}
	built, loadBytes, loadAllocs := measure(func() *Database {
		db, err := Load(bytes.NewReader(xml.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return db
	})
	path := t.TempDir() + "/seed1.wpxs"
	if err := built.SaveSnapshot(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	opened, openBytes, openAllocs := measure(func() *Database {
		db, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		return db
	})
	defer opened.Close()
	if !opened.snap.Mapped() {
		t.Skip("snapshots are read onto the heap on this platform")
	}
	t.Logf("open: %.1f heap bytes and %.4f allocations per node; load: %.1f and %.4f", openBytes, openAllocs, loadBytes, loadAllocs)
	if openBytes > 15.5 || openBytes >= loadBytes {
		t.Errorf("an opened snapshot holds %.1f heap bytes per node (a load %.1f), want at most 15.5", openBytes, loadBytes)
	}
	if openAllocs > 0.055 {
		t.Errorf("open makes %.3f allocations per node, want at most 0.055", openAllocs)
	}
	if loadAllocs > 0.05 {
		t.Errorf("a load makes %.3f allocations per node, want at most 0.05", loadAllocs)
	}
	// The XML stays live through both measurements, so neither delta is
	// offset by the document buffer being collected.
	runtime.KeepAlive(built)
	runtime.KeepAlive(xml.Bytes())
}

// TestFromDocumentFootprint pins what indexing a document already in
// memory adds to it, on the corpus TestLoadFootprint loads. A parsed
// document keeps the columns it was built from, so FromDocument derives
// none: the database adds only its postings and synopsis, at most 21
// bytes per node. It reads 17.9; columns derived a second time would
// copy every value into a blob of their own, 7.3 more bytes per node.
func TestFromDocumentFootprint(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := FromDocument(doc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(db.Size())
	t.Logf("FromDocument: %.1f heap bytes per node", perNode)
	if perNode > 21 {
		t.Errorf("FromDocument adds %.1f heap bytes per node to its document, want at most 21", perNode)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(doc)
}

// TestLoadProjectedFootprint holds a projected load that keeps every tag
// of the corpus TestLoadFootprint loads to what Load of the same bytes
// retains: the projected parse writes the same columns, and the boot
// builds no node slab beside them, so its heap per node may exceed
// Load's by at most 2 bytes, the columns' growth slack. It reads 0.2 to
// 0.4 below Load's; a projected parse that built a pointer tree and kept
// it as the slab read 122.2 above.
func TestLoadProjectedFootprint(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	c, err := xmltree.ParseColumns(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	every := pattern.New(c.Tags[0], dewey.Descendant)
	for _, tag := range c.Tags[1:] {
		every.Add(0, tag, dewey.Descendant)
	}
	measure := func(load func() (*Database, error)) (*Database, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, err := load()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return db, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(db.Size())
	}
	loaded, loadBytes := measure(func() (*Database, error) { return Load(bytes.NewReader(xml.Bytes())) })
	projected, projBytes := measure(func() (*Database, error) { return LoadProjected(bytes.NewReader(xml.Bytes()), every) })
	t.Logf("LoadProjected keeping every tag: %.1f heap bytes per node; Load: %.1f", projBytes, loadBytes)
	if projected.Size() != loaded.Size() {
		t.Fatalf("LoadProjected keeping every tag holds %d nodes, Load %d", projected.Size(), loaded.Size())
	}
	if projBytes > loadBytes+2 {
		t.Errorf("LoadProjected keeping every tag retains %.1f heap bytes per node, Load %.1f: want at most 2 more", projBytes, loadBytes)
	}
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(projected)
	runtime.KeepAlive(xml.Bytes())
}
