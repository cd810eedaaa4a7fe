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
	"sort"

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
func (e *leBuf) ords(v []int) error {
	for _, o := range v {
		if o < 0 || o > math.MaxUint32-1 {
			return fmt.Errorf("store: ordinal %d does not fit the snapshot format", o)
		}
		e.u32(uint32(o))
	}
	return nil
}

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
	add := func(kind uint32, shard int32, count int, e *leBuf) {
		payloads = append(payloads, secPayload{kind: kind, shard: shard, count: uint64(count), data: e.b})
	}

	// Tag table, first-appearance order.
	tagID := make(map[string]uint32)
	var tags []string
	for _, nd := range doc.Nodes {
		if _, ok := tagID[nd.Tag]; !ok {
			tagID[nd.Tag] = uint32(len(tags))
			tags = append(tags, nd.Tag)
		}
	}
	{
		off, blob := &leBuf{}, &leBuf{}
		off.u32(0)
		for _, t := range tags {
			blob.str(t)
			if len(blob.b) > math.MaxUint32 {
				return nil, fmt.Errorf("store: tag blob exceeds 4 GiB")
			}
			off.u32(uint32(len(blob.b)))
		}
		add(secTagOffsets, -1, len(tags)+1, off)
		add(secTagBlob, -1, len(blob.b), blob)
	}

	// Per-node columns.
	{
		nt, np, st := &leBuf{}, &leBuf{}, &leBuf{}
		vo, vb := &leBuf{}, &leBuf{}
		vo.u32(0)
		for _, nd := range doc.Nodes {
			nt.u32(tagID[nd.Tag])
			if nd.Parent == nil {
				np.u32(0)
			} else {
				np.u32(uint32(nd.Parent.Ord) + 1)
			}
			st.u32(uint32(nd.End - nd.Ord + 1))
			vb.str(nd.Value)
			if len(vb.b) > math.MaxUint32 {
				return nil, fmt.Errorf("store: value blob exceeds 4 GiB")
			}
			vo.u32(uint32(len(vb.b)))
		}
		add(secNodeTags, -1, n, nt)
		add(secNodeParents, -1, n, np)
		add(secSubtree, -1, n, st)
		add(secValueOffsets, -1, n+1, vo)
		add(secValueBlob, -1, len(vb.b), vb)
	}

	// Tag postings: ordinals grouped by tag id, ascending within each
	// group (one pass over preorder yields both).
	{
		cnt := make([]int, len(tags))
		for _, nd := range doc.Nodes {
			cnt[tagID[nd.Tag]]++
		}
		off := &leBuf{}
		off.u32(0)
		sum := 0
		starts := make([]int, len(tags))
		for t, c := range cnt {
			starts[t] = sum
			sum += c
			off.u32(uint32(sum))
		}
		ords := make([]uint32, n)
		pos := append([]int(nil), starts...)
		for _, nd := range doc.Nodes {
			t := tagID[nd.Tag]
			ords[pos[t]] = uint32(nd.Ord)
			pos[t]++
		}
		ob := &leBuf{}
		for _, o := range ords {
			ob.u32(o)
		}
		add(secTagPostOff, -1, len(tags)+1, off)
		add(secTagPostOrds, -1, n, ob)
	}

	// Value postings, keyed by (tag id, value bytes), sorted.
	{
		type valKey struct {
			tag   uint32
			value string
		}
		byVal := make(map[valKey][]int)
		for _, nd := range doc.Nodes {
			if nd.Value != "" {
				k := valKey{tagID[nd.Tag], nd.Value}
				byVal[k] = append(byVal[k], int(nd.Ord))
			}
		}
		keys := make([]valKey, 0, len(byVal))
		for k := range byVal {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].tag != keys[j].tag {
				return keys[i].tag < keys[j].tag
			}
			return keys[i].value < keys[j].value
		})
		tagsB, keyOff, keyBlob, postOff, postOrds := &leBuf{}, &leBuf{}, &leBuf{}, &leBuf{}, &leBuf{}
		keyOff.u32(0)
		postOff.u32(0)
		total := 0
		for _, k := range keys {
			tagsB.u32(k.tag)
			keyBlob.str(k.value)
			if len(keyBlob.b) > math.MaxUint32 {
				return nil, fmt.Errorf("store: value-postings key blob exceeds 4 GiB")
			}
			keyOff.u32(uint32(len(keyBlob.b)))
			if err := postOrds.ords(byVal[k]); err != nil {
				return nil, err
			}
			total += len(byVal[k])
			postOff.u32(uint32(total))
		}
		add(secValPostTags, -1, len(keys), tagsB)
		add(secValPostKeyOff, -1, len(keys)+1, keyOff)
		add(secValPostKeys, -1, len(keyBlob.b), keyBlob)
		add(secValPostOff, -1, len(keys)+1, postOff)
		add(secValPostOrds, -1, total, postOrds)
	}

	if s.Synopsis != nil {
		if err := buildSynopsisSections(s.Synopsis, tagID, add); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

func buildSynopsisSections(f *synopsis.Flat, tagID map[string]uint32, add func(uint32, int32, int, *leBuf)) error {
	synTag := make([]uint32, len(f.Tags))
	for i, t := range f.Tags {
		id, ok := tagID[t]
		if !ok {
			return fmt.Errorf("store: synopsis tag %q is not in the document", t)
		}
		synTag[i] = id
	}
	meta := &leBuf{}
	meta.s64(int64(f.NodeCount))
	add(secSynMeta, -1, 1, meta)

	ids, cnts := &leBuf{}, &leBuf{}
	for i := range f.Tags {
		ids.u32(synTag[i])
		cnts.s64(int64(f.TagCount[i]))
	}
	add(secSynTagIDs, -1, len(f.Tags), ids)
	add(secSynTagCount, -1, len(f.Tags), cnts)

	pp, pt, pc := &leBuf{}, &leBuf{}, &leBuf{}
	for i := range f.PathTag {
		pp.u32(uint32(f.PathParent[i] + 1))
		pt.u32(synTag[f.PathTag[i]])
		pc.s64(f.PathCount[i])
	}
	add(secSynPathParent, -1, len(f.PathTag), pp)
	add(secSynPathTag, -1, len(f.PathTag), pt)
	add(secSynPathCount, -1, len(f.PathTag), pc)

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
	add(secSynDescPath, -1, len(f.DescPath), dp)
	add(secSynDescTag, -1, len(f.DescPath), dt)
	add(secSynDescOff, -1, len(f.DescOff), doff)
	add(secSynArrays, -1, len(f.Arrays), arr)
	return nil
}
