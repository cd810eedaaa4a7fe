package store

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// SnapshotReader serves a v2 snapshot as an index.Source. Postings, tag
// names, node values and the synopsis statistic arrays all alias the
// snapshot bytes — when the file was mmapped, structural probes are
// answered straight from the kernel page cache, shared by every process
// that has the same snapshot open. The only per-corpus heap cost is the
// node slab, which xmltree.Columns.Build wires from the mapped columns
// exactly as Parse does from its own.
//
// Everything a SnapshotReader or any structure derived from it hands
// out (tags, node values, synopsis arrays) stays valid until Close; see
// DESIGN.md "Snapshot storage" for the ownership rules.
type SnapshotReader struct {
	data    []byte
	release func() error
	mapped  bool

	tags   []string // aliases the tag blob
	tagIDs map[string]int

	// The node slab is materialized lazily on first touch (Document, the
	// first enumeration): every input column is validated at open, so
	// materialization cannot fail, and opening a snapshot stays O(map +
	// checksum + validation) — the per-process boot cost N daemons
	// sharing one page cache each pay. docReady gates the fast path with
	// one atomic load; mu guards the build.
	docReady atomic.Bool
	doc      *xmltree.Document

	// Validated column views feeding the lazy materialization; all alias
	// the snapshot.
	n        int // node count
	nodeTags []uint32
	parents  []uint32 // parent ordinal + 1, 0 = forest root
	valOff   []uint32
	valBlob  []byte

	subtree     []uint32 // subtree size per ordinal
	tagPostOff  []uint32
	tagPostOrds []uint32
	valTags     []uint32
	valKeyOff   []uint32
	valKeys     []byte
	valPostOff  []uint32
	valPostOrds []uint32

	syn *synopsis.Synopsis

	// postings holds materialized (tag, value test) posting lists as
	// node pointers. The value in the key comes from the request, so the
	// cache is bounded; it locks itself.
	postings *lru.Cache[postingKey, []*xmltree.Node]

	mu sync.Mutex // guards the lazy node-slab build
}

type postingKey struct{ tag, op, value string }

var _ index.Source = (*SnapshotReader)(nil)

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

// Document returns the document, materializing the node slab on first
// call. Tags and node values alias the snapshot.
func (r *SnapshotReader) Document() *xmltree.Document {
	r.ensureDoc()
	return r.doc
}

// Synopsis returns the persisted structure synopsis, or nil if the
// snapshot was written without one.
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
	r := &SnapshotReader{
		data:     data,
		release:  release,
		mapped:   mapped,
		postings: lru.New[postingKey, []*xmltree.Node](lru.PostingsCap),
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
	if err := r.loadTags(get); err != nil {
		return nil, err
	}
	if err := r.loadNodes(get); err != nil {
		return nil, err
	}
	if err := r.loadPostings(get); err != nil {
		return nil, err
	}
	if _, hasSyn := single[secSynMeta]; hasSyn {
		if err := r.loadSynopsis(get); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadTags materializes the tag table; the strings alias the blob.
func (r *SnapshotReader) loadTags(get func(uint32) (section, error)) error {
	offSec, err := get(secTagOffsets)
	if err != nil {
		return err
	}
	blobSec, err := get(secTagBlob)
	if err != nil {
		return err
	}
	off := u32view(offSec.data(r.data))
	blob := blobSec.data(r.data)
	if len(off) == 0 || off[0] != 0 || uint64(off[len(off)-1]) != blobSec.len {
		return fmt.Errorf("store: tag offsets do not span the %d-byte tag blob (section at offset %d)", blobSec.len, offSec.off)
	}
	r.tags = make([]string, len(off)-1)
	r.tagIDs = make(map[string]int, len(off)-1)
	for i := range r.tags {
		if off[i] > off[i+1] {
			return fmt.Errorf("store: tag offsets decrease at entry %d (section at offset %d)", i, offSec.off)
		}
		r.tags[i] = byteString(blob[off[i]:off[i+1]])
		r.tagIDs[r.tags[i]] = i
	}
	return nil
}

// loadNodes validates the per-node columns — tag ids, parents, subtree
// sizes and value offsets — and stashes their views. The node slab itself
// is built lazily (see materialize): validation here guarantees the
// build cannot fail, so corruption still surfaces at open while the open
// path stays free of the O(n) heap materialization.
func (r *SnapshotReader) loadNodes(get func(uint32) (section, error)) error {
	tagSec, err := get(secNodeTags)
	if err != nil {
		return err
	}
	parSec, err := get(secNodeParents)
	if err != nil {
		return err
	}
	subSec, err := get(secSubtree)
	if err != nil {
		return err
	}
	valOffSec, err := get(secValueOffsets)
	if err != nil {
		return err
	}
	valBlobSec, err := get(secValueBlob)
	if err != nil {
		return err
	}
	n := int(tagSec.count)
	if tagSec.count > math.MaxInt32 {
		return fmt.Errorf("store: %d nodes exceed the int32 ordinal range", tagSec.count)
	}
	if parSec.count != uint64(n) || subSec.count != uint64(n) {
		return fmt.Errorf("store: node sections disagree on the node count (%d tags, %d parents, %d subtree sizes)",
			tagSec.count, parSec.count, subSec.count)
	}
	if valOffSec.count != uint64(n)+1 {
		return fmt.Errorf("store: value offsets want %d entries, have %d", n+1, valOffSec.count)
	}
	r.n = n
	r.nodeTags = u32view(tagSec.data(r.data))
	r.parents = u32view(parSec.data(r.data))
	r.subtree = u32view(subSec.data(r.data))
	r.valOff = u32view(valOffSec.data(r.data))
	r.valBlob = valBlobSec.data(r.data)

	if err := checkOffsets(r.valOff, uint32(valBlobSec.len), "value offsets", valOffSec.off); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if int(r.nodeTags[i]) >= len(r.tags) {
			return fmt.Errorf("store: node %d has tag id %d, only %d tags (node tags section at offset %d)",
				i, r.nodeTags[i], len(r.tags), tagSec.off)
		}
		if p := r.parents[i]; p != 0 && int(p)-1 >= i {
			return fmt.Errorf("store: node %d has parent %d at or after it (node parents section at offset %d)",
				i, p-1, parSec.off)
		}
		if s := r.subtree[i]; s < 1 || uint64(i)+uint64(s) > uint64(n) {
			return fmt.Errorf("store: node %d has subtree size %d in a %d-node document (subtree section at offset %d)",
				i, s, n, subSec.off)
		}
	}
	return nil
}

// ensureDoc materializes the node slab exactly once. The fast path is a
// single atomic load, cheap enough for probe entry points.
// +whirllint:hotpath
func (r *SnapshotReader) ensureDoc() {
	if r.docReady.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.docReady.Load() {
		r.materialize()
		r.docReady.Store(true)
	}
}

// materialize builds the node slab from the mapped columns, the way
// Parse builds it from its own: tags and values alias the snapshot.
// Every input was validated at open, so this cannot fail. Called once
// under r.mu (see ensureDoc).
// +whirllint:allocok one-time deferred slab build on first touch; every later ensureDoc is a single atomic load
func (r *SnapshotReader) materialize() {
	cols := xmltree.Columns{
		Tags:    r.tags,
		TagIDs:  r.nodeTags,
		Parents: r.parents,
		Subtree: r.subtree,
		ValueLo: r.valOff[:r.n],
		ValueHi: r.valOff[1:],
		Values:  byteString(r.valBlob),
	}
	r.doc = cols.Build()
}

// loadPostings validates the tag and (tag, value) postings; all arrays
// stay views of the snapshot.
func (r *SnapshotReader) loadPostings(get func(uint32) (section, error)) error {
	n := r.n
	tpoSec, err := get(secTagPostOff)
	if err != nil {
		return err
	}
	tpSec, err := get(secTagPostOrds)
	if err != nil {
		return err
	}
	if tpoSec.count != uint64(len(r.tags))+1 || tpSec.count != uint64(n) {
		return fmt.Errorf("store: tag postings hold %d offsets and %d ordinals, want %d and %d",
			tpoSec.count, tpSec.count, len(r.tags)+1, n)
	}
	r.tagPostOff = u32view(tpoSec.data(r.data))
	r.tagPostOrds = u32view(tpSec.data(r.data))
	if err := checkOffsets(r.tagPostOff, uint32(n), "tag postings offsets", tpoSec.off); err != nil {
		return err
	}
	nodeTags := u32view(mustGet(get, secNodeTags).data(r.data))
	for t := 0; t < len(r.tags); t++ {
		g := r.tagPostOrds[r.tagPostOff[t]:r.tagPostOff[t+1]]
		for j, o := range g {
			if int(o) >= n || int(nodeTags[o]) != t || (j > 0 && g[j-1] >= o) {
				return fmt.Errorf("store: tag postings for %q are not ascending ordinals of that tag (entry %d, section at offset %d)",
					r.tags[t], j, tpSec.off)
			}
		}
	}

	vtSec, err := get(secValPostTags)
	if err != nil {
		return err
	}
	vkoSec, err := get(secValPostKeyOff)
	if err != nil {
		return err
	}
	vkSec, err := get(secValPostKeys)
	if err != nil {
		return err
	}
	vpoSec, err := get(secValPostOff)
	if err != nil {
		return err
	}
	vpSec, err := get(secValPostOrds)
	if err != nil {
		return err
	}
	v := int(vtSec.count)
	if vkoSec.count != uint64(v)+1 || vpoSec.count != uint64(v)+1 {
		return fmt.Errorf("store: value postings hold %d keys but %d key offsets and %d postings offsets",
			v, vkoSec.count, vpoSec.count)
	}
	r.valTags = u32view(vtSec.data(r.data))
	r.valKeyOff = u32view(vkoSec.data(r.data))
	r.valKeys = vkSec.data(r.data)
	r.valPostOff = u32view(vpoSec.data(r.data))
	r.valPostOrds = u32view(vpSec.data(r.data))
	if err := checkOffsets(r.valKeyOff, uint32(vkSec.len), "value postings key offsets", vkoSec.off); err != nil {
		return err
	}
	if err := checkOffsets(r.valPostOff, uint32(vpSec.count), "value postings offsets", vpoSec.off); err != nil {
		return err
	}
	for k := 0; k < v; k++ {
		if int(r.valTags[k]) >= len(r.tags) {
			return fmt.Errorf("store: value postings key %d has tag id %d, only %d tags (section at offset %d)",
				k, r.valTags[k], len(r.tags), vtSec.off)
		}
		if k > 0 {
			prev := byteString(r.valKeys[r.valKeyOff[k-1]:r.valKeyOff[k]])
			cur := byteString(r.valKeys[r.valKeyOff[k]:r.valKeyOff[k+1]])
			if r.valTags[k-1] > r.valTags[k] || (r.valTags[k-1] == r.valTags[k] && prev >= cur) {
				return fmt.Errorf("store: value postings keys are not sorted at entry %d (section at offset %d)", k, vkSec.off)
			}
		}
		if r.valPostOff[k] == r.valPostOff[k+1] {
			return fmt.Errorf("store: value postings key %d has an empty postings list (section at offset %d)", k, vpoSec.off)
		}
		g := r.valPostOrds[r.valPostOff[k]:r.valPostOff[k+1]]
		for j, o := range g {
			if int(o) >= n || nodeTags[o] != r.valTags[k] || (j > 0 && g[j-1] >= o) {
				return fmt.Errorf("store: value postings for key %d are not ascending ordinals of its tag (entry %d, section at offset %d)",
					k, j, vpSec.off)
			}
		}
	}
	return nil
}

// mustGet is get for sections already validated present.
func mustGet(get func(uint32) (section, error), kind uint32) section {
	s, _ := get(kind)
	return s
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

// loadSynopsis rebuilds the structure synopsis. The small trie columns
// are materialized (tag ids mapped back to synopsis tag indices); the
// dominant statistic arrays alias the snapshot via synopsis.Unflatten.
func (r *SnapshotReader) loadSynopsis(get func(uint32) (section, error)) error {
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
		if int(id) >= len(r.tags) {
			return fmt.Errorf("store: synopsis tag %d has tag id %d, only %d tags", i, id, len(r.tags))
		}
		f.Tags[i] = r.tags[id]
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
	syn, err := synopsis.Unflatten(f)
	if err != nil {
		return fmt.Errorf("store: persisted synopsis rejected: %w", err)
	}
	r.syn = syn
	return nil
}

// ---- index.Source ----------------------------------------------------

// Nodes returns all nodes with the tag in document order.
func (r *SnapshotReader) Nodes(tag string) []*xmltree.Node {
	return r.NodesMatching(tag, index.ValueTest{})
}

// NodesMatching returns the tag nodes satisfying vt in document order,
// materializing the pointer slice once per cached (tag, vt) pair.
// +whirllint:allocok cache fill on the first probe of a (tag, predicate) pair; steady-state hits are allocation-free
func (r *SnapshotReader) NodesMatching(tag string, vt index.ValueTest) []*xmltree.Node {
	r.ensureDoc()
	// hit and err dropped: only a miss builds, and the build cannot fail
	out, _, _ := r.postings.GetOrCreate(postingKey{tag, vt.Op, vt.Value}, func() ([]*xmltree.Node, error) {
		g, filter := r.group(tag, vt)
		var out []*xmltree.Node
		if !filter {
			out = make([]*xmltree.Node, 0, len(g))
		}
		for _, o := range g {
			if n := r.doc.Nodes[o]; !filter || vt.Matches(n.Value) {
				out = append(out, n)
			}
		}
		return out, nil
	})
	return out
}

// group returns the sorted ordinal group holding every tag node that can
// satisfy vt — the (tag, value) postings for an equality test, the tag
// postings otherwise — and whether vt must still be applied to its
// members. It serves the whole-source enumerations; the probe path
// (appendDescendants) keeps its own inlined selection.
func (r *SnapshotReader) group(tag string, vt index.ValueTest) (g []uint32, filter bool) {
	t, ok := r.tagIDs[tag]
	if !ok {
		return nil, false
	}
	if !vt.IsEquality() {
		return r.tagPostOrds[r.tagPostOff[t]:r.tagPostOff[t+1]], !vt.Any()
	}
	k := r.findValKey(uint32(t), vt.Value)
	if k < 0 {
		return nil, false
	}
	return r.valPostOrds[r.valPostOff[k]:r.valPostOff[k+1]], false
}

// AppendCandidates serves a structural probe straight from the mapped
// postings: a node's strict descendants are the contiguous ordinal
// interval (ord, ord+subtree), so a Descendant probe is two binary
// searches on the tag's (or key's) sorted ordinal group plus appends —
// no decode, no per-probe allocation, pages shared across processes.
// +whirllint:hotpath
func (r *SnapshotReader) AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt index.ValueTest) []*xmltree.Node {
	switch axis {
	case dewey.Self:
		if anchor.Tag == tag && vt.Matches(anchor.Value) {
			return append(dst, anchor)
		}
		return dst
	case dewey.Child:
		for _, c := range anchor.Children {
			if c.Tag == tag && vt.Matches(c.Value) {
				dst = append(dst, c)
			}
		}
		return dst
	case dewey.Descendant:
		return r.appendDescendants(dst, anchor, tag, vt)
	default:
		return dst
	}
}

// appendDescendants appends the tag nodes satisfying vt inside anchor's
// descendant interval.
// +whirllint:hotpath
func (r *SnapshotReader) appendDescendants(dst []*xmltree.Node, anchor *xmltree.Node, tag string, vt index.ValueTest) []*xmltree.Node {
	t, ok := r.tagIDs[tag]
	if !ok || uint(anchor.Ord) >= uint(len(r.subtree)) {
		return dst
	}
	aLo := uint32(anchor.Ord)
	aHi := aLo + r.subtree[anchor.Ord]
	var g []uint32
	if vt.IsEquality() {
		k := r.findValKey(uint32(t), vt.Value)
		if k < 0 {
			return dst
		}
		g = r.valPostOrds[r.valPostOff[k]:r.valPostOff[k+1]]
	} else {
		g = r.tagPostOrds[r.tagPostOff[t]:r.tagPostOff[t+1]]
	}
	lo := lowerBound(g, aLo+1)
	hi := lowerBound(g, aHi)
	nodes := r.doc.Nodes
	if vt.Any() || vt.IsEquality() {
		for _, o := range g[lo:hi] {
			dst = append(dst, nodes[o])
		}
		return dst
	}
	for _, o := range g[lo:hi] {
		if vt.Matches(nodes[o].Value) {
			dst = append(dst, nodes[o])
		}
	}
	return dst
}

// findValKey binary-searches the (tag, value) key table; -1 when the
// key does not exist. The probe compares against the mapped key blob
// without allocating.
// +whirllint:hotpath
func (r *SnapshotReader) findValKey(t uint32, value string) int {
	lo, hi := 0, len(r.valTags)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		mt := r.valTags[m]
		if mt < t {
			lo = m + 1
			continue
		}
		if mt > t {
			hi = m
			continue
		}
		k := byteString(r.valKeys[r.valKeyOff[m]:r.valKeyOff[m+1]])
		switch {
		case k < value:
			lo = m + 1
		case k > value:
			hi = m
		default:
			return m
		}
	}
	return -1
}

// lowerBound returns the first index i with g[i] >= x. Hand-rolled so
// the probe loop carries no closure.
// +whirllint:hotpath
func lowerBound(g []uint32, x uint32) int {
	lo, hi := 0, len(g)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
