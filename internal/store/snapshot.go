package store

import (
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// SnapshotReader serves a v2 snapshot: it validates the snapshot's node
// and posting columns and embeds the index.Index they make, so a
// snapshot is probed exactly as a built index is. Node columns,
// postings, tag names, node values and the synopsis statistic arrays all
// alias the snapshot bytes — when the file was mmapped, they are served
// straight from the kernel page cache, shared by every process that has
// the same snapshot open. The per-corpus heap cost is the level and
// position columns open derives from the parents (xmltree.Columns.Shape)
// and one string header per tag and per value key; the node slab is
// built only if a caller walks nodes (index.Index.Document).
//
// Everything a SnapshotReader or any structure derived from it hands
// out (tags, node values, synopsis arrays) stays valid until Close; see
// DESIGN.md "Snapshot storage" for the ownership rules.
type SnapshotReader struct {
	*index.Index

	data    []byte
	release func() error
	mapped  bool

	syn *synopsis.Synopsis
}

// OpenSnapshot maps the snapshot at path and wires a reader over it.
// The file is mmapped read-only when the platform allows it; otherwise
// (or if the mapping fails) it is read into memory, preserving behavior
// at the cost of sharing. Validation — header, CRC-32C over the body,
// section table, and every structural invariant the probe paths rely
// on — happens here, so corruption fails at open with a positioned
// error instead of surfacing at query time.
func OpenSnapshot(path string) (*SnapshotReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("store: snapshot %s: %d bytes exceed the address space", path, size)
	}
	var (
		data    []byte
		release func() error
		mapped  bool
	)
	if mmapSupported {
		data, release, err = mmapFile(f, int(size))
		mapped = err == nil
	}
	if !mapped {
		data = make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
		}
		release = nil
	}
	r, err := newSnapshotReader(data, release, mapped)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return r, nil
}

// ParseSnapshot wires a reader over an in-memory snapshot image. Used
// by tests and the corruption fuzzer; OpenSnapshot is the mmap path.
func ParseSnapshot(data []byte) (*SnapshotReader, error) {
	return newSnapshotReader(data, nil, false)
}

// Close releases the mapping. After Close no node, value or synopsis
// obtained from the reader may be used.
func (r *SnapshotReader) Close() error {
	rel := r.release
	r.release = nil
	if rel != nil {
		return rel()
	}
	return nil
}

// Mapped reports whether the reader serves from an mmapped file (true)
// or a heap copy (false).
func (r *SnapshotReader) Mapped() bool { return r.mapped }

// SizeBytes returns the snapshot file size.
func (r *SnapshotReader) SizeBytes() int { return len(r.data) }

// Synopsis returns the persisted structure synopsis, or for a snapshot
// written without one the synopsis open built from the node columns.
func (r *SnapshotReader) Synopsis() *synopsis.Synopsis { return r.syn }

// sectionSizes maps kinds to their element width for length validation;
// 1 marks byte blobs.
var sectionSizes = map[uint32]uint64{
	secTagOffsets: 4, secTagBlob: 1, secNodeTags: 4, secNodeParents: 4,
	secSubtree: 4, secValueOffsets: 4, secValueBlob: 1,
	secTagPostOff: 4, secTagPostOrds: 4, secValPostTags: 4,
	secValPostKeyOff: 4, secValPostKeys: 1, secValPostOff: 4, secValPostOrds: 4,
	secSynMeta: 8, secSynTagIDs: 4, secSynTagCount: 8,
	secSynPathParent: 4, secSynPathTag: 4, secSynPathCount: 8,
	secSynDescPath: 4, secSynDescTag: 4, secSynDescOff: 8, secSynArrays: 8,
}

func newSnapshotReader(data []byte, release func() error, mapped bool) (*SnapshotReader, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	secs, err := parseSections(data, h)
	if err != nil {
		return nil, err
	}
	single := make(map[uint32]section)
	for i, s := range secs {
		elem, known := sectionSizes[s.kind]
		if !known {
			continue // forward compatibility: unknown kinds are skipped
		}
		if elem > 1 && (s.len%elem != 0 || s.count != s.len/elem) {
			return nil, fmt.Errorf("store: %s section length %d does not hold %d %d-byte entries (table entry %d)",
				sectionName(s.kind), s.len, s.count, elem, i)
		}
		if elem == 1 && s.len != s.count {
			return nil, fmt.Errorf("store: %s section length %d disagrees with count %d (table entry %d)",
				sectionName(s.kind), s.len, s.count, i)
		}
		if _, dup := single[s.kind]; dup {
			return nil, fmt.Errorf("store: duplicate %s section (table entry %d)", sectionName(s.kind), i)
		}
		single[s.kind] = s
	}
	get := func(kind uint32) (section, error) {
		s, ok := single[kind]
		if !ok {
			return section{}, fmt.Errorf("store: snapshot is missing the %s section", sectionName(kind))
		}
		return s, nil
	}
	r := &SnapshotReader{data: data, release: release, mapped: mapped}
	tags, err := r.strings(get, secTagOffsets, secTagBlob)
	if err != nil {
		return nil, err
	}
	cols, err := r.loadNodes(get, tags)
	if err != nil {
		return nil, err
	}
	if err := r.loadPostings(get, cols, tags); err != nil {
		return nil, err
	}
	if _, hasSyn := single[secSynMeta]; !hasSyn {
		r.syn = synopsis.FromColumns(cols)
	} else if err := r.loadSynopsis(get); err != nil {
		return nil, err
	}
	return r, nil
}

// strings decodes a string table — an offsets section over a blob
// section — into strings that alias the blob.
func (r *SnapshotReader) strings(get func(uint32) (section, error), offKind, blobKind uint32) ([]string, error) {
	offSec, err := get(offKind)
	if err != nil {
		return nil, err
	}
	blobSec, err := get(blobKind)
	if err != nil {
		return nil, err
	}
	off := u32view(offSec.data(r.data))
	if err := checkOffsets(off, uint32(blobSec.len), sectionName(offKind), offSec.off); err != nil {
		return nil, err
	}
	blob := blobSec.data(r.data)
	out := make([]string, len(off)-1)
	for i := range out {
		out[i] = byteString(blob[off[i]:off[i+1]])
	}
	return out, nil
}

// loadNodes validates the per-node columns — tag ids, parents, subtree
// sizes and value offsets — and returns them, with the levels and
// positions derived from the parents.
func (r *SnapshotReader) loadNodes(get func(uint32) (section, error), tags []string) (*xmltree.Columns, error) {
	var secs [5]section
	for i, kind := range []uint32{secNodeTags, secNodeParents, secSubtree, secValueOffsets, secValueBlob} {
		s, err := get(kind)
		if err != nil {
			return nil, err
		}
		secs[i] = s
	}
	tagSec, parSec, subSec, valOffSec, valBlobSec := secs[0], secs[1], secs[2], secs[3], secs[4]
	n := int(tagSec.count)
	if tagSec.count > math.MaxInt32 {
		return nil, fmt.Errorf("store: %d nodes exceed the int32 ordinal range", tagSec.count)
	}
	if parSec.count != uint64(n) || subSec.count != uint64(n) {
		return nil, fmt.Errorf("store: node sections disagree on the node count (%d tags, %d parents, %d subtree sizes)",
			tagSec.count, parSec.count, subSec.count)
	}
	if valOffSec.count != uint64(n)+1 {
		return nil, fmt.Errorf("store: value offsets want %d entries, have %d", n+1, valOffSec.count)
	}
	nodeTags := u32view(tagSec.data(r.data))
	parents := u32view(parSec.data(r.data))
	subtree := u32view(subSec.data(r.data))
	valOff := u32view(valOffSec.data(r.data))
	if err := checkOffsets(valOff, uint32(valBlobSec.len), "value offsets", valOffSec.off); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if int(nodeTags[i]) >= len(tags) {
			return nil, fmt.Errorf("store: node %d has tag id %d, only %d tags (node tags section at offset %d)",
				i, nodeTags[i], len(tags), tagSec.off)
		}
		if p := parents[i]; p != 0 && int(p)-1 >= i {
			return nil, fmt.Errorf("store: node %d has parent %d at or after it (node parents section at offset %d)",
				i, p-1, parSec.off)
		}
		if s := subtree[i]; s < 1 || uint64(i)+uint64(s) > uint64(n) {
			return nil, fmt.Errorf("store: node %d has subtree size %d in a %d-node document (subtree section at offset %d)",
				i, s, n, subSec.off)
		}
	}
	c := &xmltree.Columns{
		Tags:    tags,
		TagIDs:  nodeTags,
		Parents: parents,
		Subtree: subtree,
		ValueLo: valOff[:n],
		ValueHi: valOff[1:],
		Values:  byteString(valBlobSec.data(r.data)),
	}
	if err := c.Shape(); err != nil {
		return nil, fmt.Errorf("store: %w (node parents section at offset %d)", err, parSec.off)
	}
	return c, nil
}

// columnSections names the section each index column is stored in.
var columnSections = map[string]uint32{
	"Tags": secTagBlob, "TagOff": secTagPostOff, "TagOrds": secTagPostOrds,
	"KeyTags": secValPostTags, "Keys": secValPostKeys, "KeyOff": secValPostOff, "KeyOrds": secValPostOrds,
}

// loadPostings views the posting sections as index columns over the
// validated node columns and has index.Open validate them; a column it
// rejects is reported by its section and file offset.
func (r *SnapshotReader) loadPostings(get func(uint32) (section, error), nodes *xmltree.Columns, tags []string) error {
	keys, err := r.strings(get, secValPostKeyOff, secValPostKeys)
	if err != nil {
		return err
	}
	c := index.Columns{Tags: tags, Keys: keys}
	for _, col := range []struct {
		kind uint32
		dst  *[]uint32
	}{
		{secTagPostOff, &c.TagOff}, {secTagPostOrds, &c.TagOrds}, {secValPostTags, &c.KeyTags},
		{secValPostOff, &c.KeyOff}, {secValPostOrds, &c.KeyOrds},
	} {
		s, err := get(col.kind)
		if err != nil {
			return err
		}
		*col.dst = u32view(s.data(r.data))
	}
	r.Index, err = index.Open(nodes, c)
	var ce *index.ColumnError
	if errors.As(err, &ce) {
		s, _ := get(columnSections[ce.Column]) // present: its column was read
		return fmt.Errorf("store: %s section at offset %d: %w", sectionName(s.kind), s.off, err)
	}
	return err
}

// checkOffsets validates a prefix-sum offsets array: starts at zero,
// never decreases, ends exactly at limit.
func checkOffsets(off []uint32, limit uint32, what string, at uint64) error {
	if len(off) == 0 || off[0] != 0 || off[len(off)-1] != limit {
		return fmt.Errorf("store: %s do not span [0, %d) (section at offset %d)", what, limit, at)
	}
	for i := 1; i < len(off); i++ {
		if off[i-1] > off[i] {
			return fmt.Errorf("store: %s decrease at entry %d (section at offset %d)", what, i, at)
		}
	}
	return nil
}

// loadSynopsis opens the persisted structure synopsis. The small tag,
// path and statistic index columns are materialized (tag ids mapped back
// to synopsis tag indices); the counts and the dominant statistic arrays
// alias the snapshot.
func (r *SnapshotReader) loadSynopsis(get func(uint32) (section, error)) error {
	tags := r.Tags
	need := func(kind uint32) ([]byte, uint64, error) {
		s, err := get(kind)
		if err != nil {
			return nil, 0, err
		}
		return s.data(r.data), s.count, nil
	}
	metaB, metaCnt, err := need(secSynMeta)
	if err != nil {
		return err
	}
	if metaCnt < 1 {
		return fmt.Errorf("store: synopsis meta section is empty")
	}
	idsB, st, err := need(secSynTagIDs)
	if err != nil {
		return err
	}
	cntB, cnt2, err := need(secSynTagCount)
	if err != nil {
		return err
	}
	ppB, np, err := need(secSynPathParent)
	if err != nil {
		return err
	}
	ptB, np2, err := need(secSynPathTag)
	if err != nil {
		return err
	}
	pcB, np3, err := need(secSynPathCount)
	if err != nil {
		return err
	}
	dpB, ndc, err := need(secSynDescPath)
	if err != nil {
		return err
	}
	dtB, ndc2, err := need(secSynDescTag)
	if err != nil {
		return err
	}
	doB, ndo, err := need(secSynDescOff)
	if err != nil {
		return err
	}
	arrB, _, err := need(secSynArrays)
	if err != nil {
		return err
	}
	if cnt2 != st || np2 != np || np3 != np || ndc2 != ndc || ndo != ndc+1 {
		return fmt.Errorf("store: synopsis sections disagree on their counts")
	}
	ids := u32view(idsB)
	synIdx := make(map[uint32]int32, len(ids))
	f := &synopsis.Flat{
		NodeCount: int(s64view(metaB)[0]),
		Tags:      make([]string, len(ids)),
		TagCount:  intview(cntB),
		PathCount: s64view(pcB),
		DescOff:   s64view(doB),
		Arrays:    intview(arrB),
	}
	for i, id := range ids {
		if int(id) >= len(tags) {
			return fmt.Errorf("store: synopsis tag %d has tag id %d, only %d tags", i, id, len(tags))
		}
		f.Tags[i] = tags[id]
		synIdx[id] = int32(i)
	}
	pp := u32view(ppB)
	pt := u32view(ptB)
	f.PathParent = make([]int32, len(pp))
	f.PathTag = make([]int32, len(pp))
	for i := range pp {
		f.PathParent[i] = int32(pp[i]) - 1
		idx, ok := synIdx[pt[i]]
		if !ok {
			return fmt.Errorf("store: synopsis path %d names tag id %d outside the synopsis tag table", i, pt[i])
		}
		f.PathTag[i] = idx
	}
	dp := u32view(dpB)
	dt := u32view(dtB)
	f.DescPath = make([]int32, len(dp))
	f.DescTag = make([]int32, len(dp))
	for i := range dp {
		f.DescPath[i] = int32(dp[i])
		idx, ok := synIdx[dt[i]]
		if !ok {
			return fmt.Errorf("store: synopsis desc %d names tag id %d outside the synopsis tag table", i, dt[i])
		}
		f.DescTag[i] = idx
	}
	syn, err := synopsis.Open(f)
	if err != nil {
		return fmt.Errorf("store: persisted synopsis rejected: %w", err)
	}
	r.syn = syn
	return nil
}
