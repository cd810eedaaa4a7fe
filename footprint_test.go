package whirlpool

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/synopsis"
	"repro/internal/xmark"
)

// TestLoadFootprint pins what a built corpus costs on XMark seed 1 at
// 1 MB. A loaded database — the node slab and the index — holds at most
// 140 bytes of live heap per node: no Dewey slice per node, one copy of
// each tag name, one value blob. Stored IDs and per-node strings took
// 185. And the synopsis pass allocates at most one object per two nodes:
// its counters live in frames reused by depth, not in a map per node
// (4.55 allocations per node).
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
	if perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nodes; perNode > 140 {
		t.Errorf("a loaded database holds %.1f heap bytes per node, want at most 140", perNode)
	}
	allocs := testing.AllocsPerRun(1, func() { synopsis.Build(db.Document()) })
	if perNode := allocs / nodes; perNode > 0.5 {
		t.Errorf("synopsis.Build makes %.2f allocations per node, want at most 0.5", perNode)
	}
	runtime.KeepAlive(db)
}
