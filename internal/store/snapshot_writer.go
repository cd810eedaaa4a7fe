package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// Snapshot describes a fully built corpus for serialization into the v2
// mmap format: the document itself plus the derived read-only structures
// that are expensive to rebuild at boot. Only Doc is required; absent
// parts simply produce no sections, and OpenSnapshot falls back to the
// in-memory build path for them.
type Snapshot struct {
	// Doc is the indexed document; its nodes must be in preorder with
	// Nodes[i].Ord == i (any parsed or renumbered document qualifies).
	Doc *xmltree.Document
	// Synopsis is the flattened structure synopsis (synopsis.Build then
	// Flatten), persisted so planners skip the ~per-corpus build cost.
	Synopsis *synopsis.Flat
}

// secPayload is one section staged for writing.
type secPayload struct {
	kind  uint32
	shard int32
	count uint64
	data  []byte
}

// leBuf is an append-only little-endian array builder.
type leBuf struct{ b []byte }

func (e *leBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *leBuf) s64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *leBuf) raw(p []byte) { e.b = append(e.b, p...) }
func (e *leBuf) str(s string) { e.b = append(e.b, s...) }

// WriteSnapshot serializes s to w in the v2 mmap snapshot format.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	payloads, err := buildSections(s)
	if err != nil {
		return err
	}
	return writeSections(w, payloads)
}

// writeSections lays the payloads out behind a header and section table.
func writeSections(w io.Writer, payloads []secPayload) error {
	tableEnd := headerSize + len(payloads)*sectionEntry
	out := make([]byte, alignUp(tableEnd, snapshotPage))
	for i := range payloads {
		p := &payloads[i]
		off := len(out)
		out = append(out, p.data...)
		if i < len(payloads)-1 {
			out = append(out, make([]byte, alignUp(len(out), snapshotPage)-len(out))...)
		}
		e := out[headerSize+i*sectionEntry:]
		binary.LittleEndian.PutUint32(e[0:], p.kind)
		binary.LittleEndian.PutUint32(e[4:], uint32(p.shard))
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(p.data)))
		binary.LittleEndian.PutUint64(e[24:], p.count)
	}
	h := header{
		version:  snapshotVersion,
		pageSize: snapshotPage,
		fileSize: uint64(len(out)),
		bodyCRC:  crc32.Checksum(out[crcFrom:], castagnoli),
		sections: uint32(len(payloads)),
	}
	copy(out[:headerSize], h.encode())
	_, err := w.Write(out)
	return err
}

// SaveSnapshot writes the snapshot to path, replacing any existing file
// atomically (temp file in the same directory, then rename).
func SaveSnapshot(path string, s *Snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".wpsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := WriteSnapshot(bw, s); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func alignUp(v, to int) int { return (v + to - 1) / to * to }

func buildSections(s *Snapshot) ([]secPayload, error) {
	if s == nil || s.Doc == nil {
		return nil, fmt.Errorf("store: nil snapshot document")
	}
	doc := s.Doc
	n := len(doc.Nodes)
	if n > math.MaxUint32-1 {
		return nil, fmt.Errorf("store: %d nodes exceed the snapshot format's capacity", n)
	}
	for i, nd := range doc.Nodes {
		if int(nd.Ord) != i {
			return nil, fmt.Errorf("store: document is not renumbered (node %d has ord %d)", i, nd.Ord)
		}
	}
	var payloads []secPayload
	add := func(kind uint32, count int, e *leBuf) {
		payloads = append(payloads, secPayload{kind: kind, shard: -1, count: uint64(count), data: e.b})
	}
	addStrings := func(offKind, blobKind uint32, count int, str func(i int) string) error {
		off, blob := &leBuf{}, &leBuf{}
		off.u32(0)
		for i := 0; i < count; i++ {
			blob.str(str(i))
			if len(blob.b) > math.MaxUint32 {
				return fmt.Errorf("store: %s exceeds 4 GiB", sectionName(blobKind))
			}
			off.u32(uint32(len(blob.b)))
		}
		add(offKind, count+1, off)
		add(blobKind, len(blob.b), blob)
		return nil
	}
	addU32s := func(kind uint32, v []uint32) {
		e := &leBuf{}
		for _, x := range v {
			e.u32(x)
		}
		add(kind, len(v), e)
	}

	ix := index.Build(doc)
	c := ix.Columns
	if err := addStrings(secTagOffsets, secTagBlob, len(c.Tags), func(i int) string { return c.Tags[i] }); err != nil {
		return nil, err
	}

	// Per-node columns; a node's tag id is the tag postings group it
	// sits in.
	nodeTags := make([]uint32, n)
	for t := range c.Tags {
		for _, o := range c.TagOrds[c.TagOff[t]:c.TagOff[t+1]] {
			nodeTags[o] = uint32(t)
		}
	}
	np, st := &leBuf{}, &leBuf{}
	for _, nd := range doc.Nodes {
		parent := uint32(0)
		if nd.Parent != nil {
			parent = uint32(nd.Parent.Ord) + 1
		}
		np.u32(parent)
		st.u32(uint32(nd.End - nd.Ord + 1))
	}
	addU32s(secNodeTags, nodeTags)
	add(secNodeParents, n, np)
	add(secSubtree, n, st)
	if err := addStrings(secValueOffsets, secValueBlob, n, func(i int) string { return doc.Nodes[i].Value }); err != nil {
		return nil, err
	}

	// The index's posting columns, as they are.
	addU32s(secTagPostOff, c.TagOff)
	addU32s(secTagPostOrds, c.TagOrds)
	addU32s(secValPostTags, c.KeyTags)
	if err := addStrings(secValPostKeyOff, secValPostKeys, len(c.Keys), func(i int) string { return c.Keys[i] }); err != nil {
		return nil, err
	}
	addU32s(secValPostOff, c.KeyOff)
	addU32s(secValPostOrds, c.KeyOrds)

	if s.Synopsis != nil {
		if err := buildSynopsisSections(s.Synopsis, ix.TagID, add); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

func buildSynopsisSections(f *synopsis.Flat, tagID func(string) (uint32, bool), add func(uint32, int, *leBuf)) error {
	synTag := make([]uint32, len(f.Tags))
	for i, t := range f.Tags {
		id, ok := tagID(t)
		if !ok {
			return fmt.Errorf("store: synopsis tag %q is not in the document", t)
		}
		synTag[i] = id
	}
	meta := &leBuf{}
	meta.s64(int64(f.NodeCount))
	add(secSynMeta, 1, meta)

	ids, cnts := &leBuf{}, &leBuf{}
	for i := range f.Tags {
		ids.u32(synTag[i])
		cnts.s64(int64(f.TagCount[i]))
	}
	add(secSynTagIDs, len(f.Tags), ids)
	add(secSynTagCount, len(f.Tags), cnts)

	pp, pt, pc := &leBuf{}, &leBuf{}, &leBuf{}
	for i := range f.PathTag {
		pp.u32(uint32(f.PathParent[i] + 1))
		pt.u32(synTag[f.PathTag[i]])
		pc.s64(f.PathCount[i])
	}
	add(secSynPathParent, len(f.PathTag), pp)
	add(secSynPathTag, len(f.PathTag), pt)
	add(secSynPathCount, len(f.PathTag), pc)

	dp, dt, doff, arr := &leBuf{}, &leBuf{}, &leBuf{}, &leBuf{}
	for i := range f.DescPath {
		dp.u32(uint32(f.DescPath[i]))
		dt.u32(synTag[f.DescTag[i]])
	}
	for _, o := range f.DescOff {
		doff.s64(o)
	}
	for _, v := range f.Arrays {
		arr.s64(int64(v))
	}
	add(secSynDescPath, len(f.DescPath), dp)
	add(secSynDescTag, len(f.DescPath), dt)
	add(secSynDescOff, len(f.DescOff), doff)
	add(secSynArrays, len(f.Arrays), arr)
	return nil
}
