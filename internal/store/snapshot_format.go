// Package store boots a corpus — node slab, postings and structure
// synopsis — in either of its two backings: built on the heap from
// parsed columns (Build), or served from a zero-copy snapshot that it
// also persists (SaveSnapshot, OpenSnapshot) — the paper's in-memory and
// disk-resident scenarios (Section 6.3.3). The snapshot format ("WPXS") lays the node
// columns (tags, parents, subtree extents, values), tag and value
// postings and the structure synopsis out as flat
// little-endian arrays in page-aligned sections, so a reader can mmap the
// file and serve structural probes directly from the mapped pages. Dewey
// IDs are not stored: a node derives its ID from its position among its
// parent's children.
// See DESIGN.md, "Snapshot storage", for the layout diagram and the
// alignment/endianness/ownership rules.
//
//	header       64 bytes (magic, version, flags, page size, file size,
//	             crc32c over bytes [32, fileSize), section count)
//	section tab  sectionCount × 32 bytes {kind u32, shard s32,
//	             off u64, len u64, count u64}
//	sections     each starting on a 4096-byte boundary, gaps zeroed
//
// Everything after byte 32 — the reserved header tail, the section
// table and every section — is covered by the checksum, so a flipped
// bit anywhere that matters fails fast at open with a positioned error
// instead of surfacing as wrong candidates at query time.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

var snapshotMagic = [4]byte{'W', 'P', 'X', 'S'}

const (
	snapshotVersion = 2
	snapshotPage    = 4096
	headerSize      = 64
	sectionEntry    = 32
	// crcFrom is the file offset the body checksum starts at: the
	// header's reserved tail, so the section table is covered too.
	crcFrom = 32
)

// castagnoli is the CRC-32C table; the polynomial has hardware support
// (SSE4.2 / ARMv8 CRC) in hash/crc32, so checksumming a mapped snapshot
// at open costs single-digit milliseconds per gigabyte-ish corpus.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section kinds. Node-level sections are indexed by preorder ordinal;
// "offsets" sections carry one extra terminator entry so element i
// spans [off[i], off[i+1]).
const (
	secTagOffsets   = 1 // u32[tagCnt+1] byte offsets into the tag blob
	secTagBlob      = 2 // tag names, concatenated
	secNodeTags     = 3 // u32[n] tag id per node
	secNodeParents  = 4 // u32[n] parent ordinal + 1; 0 = forest root
	secSubtree      = 5 // u32[n] subtree size, self included
	secValueOffsets = 6 // u32[n+1] byte offsets into the value blob
	secValueBlob    = 7 // node text values, concatenated
	// 8 and 9 are reserved: older files carry every node's Dewey ID under
	// them (offsets and components), which the reader skips like any kind
	// it does not know.
	secTagPostOff    = 10 // u32[tagCnt+1] offsets into the tag postings
	secTagPostOrds   = 11 // u32[n] ordinals grouped by tag, ascending
	secValPostTags   = 12 // u32[v] tag id per (tag, value) key
	secValPostKeyOff = 13 // u32[v+1] byte offsets into the key blob
	secValPostKeys   = 14 // value bytes of the keys, concatenated
	secValPostOff    = 15 // u32[v+1] offsets into the value postings
	secValPostOrds   = 16 // u32[mv] ordinals grouped by key, ascending
	// 18, 19 and 20 are reserved: older files carry keyword indexes (18)
	// and shard layouts (19, 20) under them, which the reader skips like
	// any kind it does not know.

	// Synopsis sections: the column form of synopsis.Flat, with tag
	// names replaced by snapshot tag ids. secSynArrays is the dominant
	// payload and is read in place by the opened synopsis.
	secSynMeta     = 29 // s64[1] summarized node count
	secSynTagIDs   = 30 // u32[st], sorted by tag name
	secSynTagCount = 31 // s64[st]
	// 32 is reserved: older files carry each tag's count of text-carrying
	// nodes there (the keyword df), skipped like 18.
	secSynPathParent = 33 // u32[np] parent path index + 1; 0 = virtual root
	secSynPathTag    = 34 // u32[np]
	secSynPathCount  = 35 // s64[np]
	secSynDescPath   = 36 // u32[nd]
	secSynDescTag    = 37 // u32[nd]
	secSynDescOff    = 38 // s64[nd+1]
	secSynArrays     = 39 // s64[...] the five per-level stat arrays
)

// sectionName labels kinds in error messages, keeping on-disk
// corruption debuggable (the satellite fix this format generalizes).
func sectionName(kind uint32) string {
	names := map[uint32]string{
		secTagOffsets: "tag offsets", secTagBlob: "tag blob",
		secNodeTags: "node tags", secNodeParents: "node parents",
		secSubtree: "subtree sizes", secValueOffsets: "value offsets",
		secValueBlob: "value blob", secTagPostOff: "tag postings offsets",
		secTagPostOrds: "tag postings", secValPostTags: "value postings tags",
		secValPostKeyOff: "value postings key offsets", secValPostKeys: "value postings keys",
		secValPostOff: "value postings offsets", secValPostOrds: "value postings",
		secSynMeta: "synopsis meta", secSynTagIDs: "synopsis tags",
		secSynTagCount: "synopsis tag counts", secSynPathParent: "synopsis path parents",
		secSynPathTag: "synopsis path tags", secSynPathCount: "synopsis path counts",
		secSynDescPath: "synopsis desc paths", secSynDescTag: "synopsis desc tags",
		secSynDescOff: "synopsis desc offsets", secSynArrays: "synopsis arrays",
	}
	if n, ok := names[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind %d", kind)
}

// section is one parsed section-table entry.
type section struct {
	kind  uint32
	shard int32
	off   uint64
	len   uint64
	count uint64
}

// data returns the section's byte range within the snapshot; bounds were
// validated when the table was parsed.
func (s section) data(file []byte) []byte { return file[s.off : s.off+s.len] }

// header is the fixed 64-byte snapshot header.
type header struct {
	version  uint32
	flags    uint32
	pageSize uint32
	fileSize uint64
	bodyCRC  uint32
	sections uint32
}

func (h header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, snapshotMagic[:])
	binary.LittleEndian.PutUint32(b[4:], h.version)
	binary.LittleEndian.PutUint32(b[8:], h.flags)
	binary.LittleEndian.PutUint32(b[12:], h.pageSize)
	binary.LittleEndian.PutUint64(b[16:], h.fileSize)
	binary.LittleEndian.PutUint32(b[24:], h.bodyCRC)
	binary.LittleEndian.PutUint32(b[28:], h.sections)
	return b
}

// parseHeader validates the fixed header against the actual input size.
func parseHeader(data []byte) (header, error) {
	if bytes.HasPrefix(data, []byte("WPX1")) {
		// The v1 varint format has no reader any more; name the way out
		// instead of reporting a bare magic mismatch.
		return header{}, errors.New("store: retired v1 .wpx format (magic WPX1) is no longer readable; " +
			"regenerate the snapshot from the source XML with `whirlpool -file <xml> -save-snapshot <out.wpxs>`")
	}
	if len(data) < headerSize {
		return header{}, fmt.Errorf("store: snapshot truncated: %d bytes, need %d-byte header", len(data), headerSize)
	}
	if !bytes.Equal(data[:4], snapshotMagic[:]) {
		return header{}, fmt.Errorf("store: bad snapshot magic % x at offset 0", data[:4])
	}
	h := header{
		version:  binary.LittleEndian.Uint32(data[4:]),
		flags:    binary.LittleEndian.Uint32(data[8:]),
		pageSize: binary.LittleEndian.Uint32(data[12:]),
		fileSize: binary.LittleEndian.Uint64(data[16:]),
		bodyCRC:  binary.LittleEndian.Uint32(data[24:]),
		sections: binary.LittleEndian.Uint32(data[28:]),
	}
	if h.version != snapshotVersion {
		return header{}, fmt.Errorf("store: unsupported snapshot version %d (want %d) at offset 4", h.version, snapshotVersion)
	}
	if h.pageSize != snapshotPage {
		return header{}, fmt.Errorf("store: unsupported snapshot page size %d (want %d) at offset 12", h.pageSize, snapshotPage)
	}
	if h.fileSize != uint64(len(data)) {
		return header{}, fmt.Errorf("store: snapshot declares %d bytes but input holds %d (offset 16)", h.fileSize, len(data))
	}
	if uint64(h.sections) > (h.fileSize-headerSize)/sectionEntry {
		return header{}, fmt.Errorf("store: section count %d exceeds input size (offset 28)", h.sections)
	}
	return h, nil
}

// parseSections validates the checksum and the section table, returning
// the parsed entries. Every structural error carries the file offset it
// was detected at.
func parseSections(data []byte, h header) ([]section, error) {
	if got := crc32.Checksum(data[crcFrom:], castagnoli); got != h.bodyCRC {
		return nil, fmt.Errorf("store: snapshot checksum mismatch: body crc32c %08x, header declares %08x (offset 24)", got, h.bodyCRC)
	}
	secs := make([]section, h.sections)
	for i := range secs {
		off := headerSize + i*sectionEntry
		e := data[off : off+sectionEntry]
		s := section{
			kind:  binary.LittleEndian.Uint32(e[0:]),
			shard: int32(binary.LittleEndian.Uint32(e[4:])),
			off:   binary.LittleEndian.Uint64(e[8:]),
			len:   binary.LittleEndian.Uint64(e[16:]),
			count: binary.LittleEndian.Uint64(e[24:]),
		}
		if s.off%snapshotPage != 0 {
			return nil, fmt.Errorf("store: %s section is not page-aligned (offset %d in table entry %d)", sectionName(s.kind), s.off, i)
		}
		if s.off < uint64(headerSize+int(h.sections)*sectionEntry) || s.off+s.len < s.off || s.off+s.len > h.fileSize {
			return nil, fmt.Errorf("store: %s section [%d, %d) escapes the %d-byte file (table entry %d)", sectionName(s.kind), s.off, s.off+s.len, h.fileSize, i)
		}
		secs[i] = s
	}
	return secs, nil
}
