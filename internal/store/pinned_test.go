package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestSnapshotBytesPinned pins the WPXS image byte for byte: XMark seed 1
// at 256 KB with its synopsis, as SaveSnapshot writes it. A writer that
// reorders a tag table, a key or a posting changes the hash; so does
// any format change, which must then say so.
func TestSnapshotBytesPinned(t *testing.T) {
	const want = "db8a1eb4546dfeb5e0902d555bc5c287460260c8addeb6d2ecdc83abfd14a64c"
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 256<<10); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(&xml)
	if err != nil {
		t.Fatal(err)
	}
	raw := writeSnap(t, &Snapshot{Doc: doc, Synopsis: synopsis.Build(doc).Flatten()})
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot of XMark seed 1 at 256 KB (%d bytes) hashes to %s, want %s", len(raw), got, want)
	}
}
