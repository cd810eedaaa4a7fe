package keyword

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xmltree"
)

// Flat is the column-oriented form of an Index used by the snapshot
// store: scope elements and postings entries are referenced by preorder
// ordinal, words by offsets into one concatenated blob, so the whole
// structure serializes as fixed-width integers plus one byte string.
//
// Words are sorted; per-word postings keep their query-time order
// (descending tf, then ascending ordinal). Entry i of word w occupies
// EntryOrd/EntryTF[PostOff[w]:PostOff[w+1]]. The idf values are not
// stored: they are a pure function of the scope count and each list's
// length, recomputed exactly by Unflatten.
type Flat struct {
	// ScopeTag is the indexed element tag.
	ScopeTag string
	// ScopeOrds are the preorder ordinals of the scope elements, in
	// document order.
	ScopeOrds []int32
	// Words is the sorted vocabulary, concatenated; word w is
	// Words[WordOff[w]:WordOff[w+1]].
	Words   string
	WordOff []int32
	// PostOff has one entry per word plus a terminator; EntryOrd/EntryTF
	// are the flattened postings.
	PostOff  []int32
	EntryOrd []int32
	EntryTF  []int32
}

// Flatten converts the index into its column form.
func (ix *Index) Flatten() *Flat {
	f := &Flat{ScopeTag: ix.scopeTag, PostOff: []int32{0}}
	for _, n := range ix.scopes {
		f.ScopeOrds = append(f.ScopeOrds, n.Ord)
	}
	words := make([]string, 0, len(ix.postings))
	for w := range ix.postings {
		words = append(words, w)
	}
	sort.Strings(words)
	f.WordOff = append(f.WordOff, 0)
	for _, w := range words {
		f.Words += w
		f.WordOff = append(f.WordOff, int32(len(f.Words)))
		for _, e := range ix.postings[w] {
			f.EntryOrd = append(f.EntryOrd, e.Node.Ord)
			f.EntryTF = append(f.EntryTF, int32(e.TF))
		}
		f.PostOff = append(f.PostOff, int32(len(f.EntryOrd)))
	}
	return f
}

// Unflatten rebuilds an Index over doc from its column form, resolving
// ordinals against doc.Nodes and recomputing idf — no subtree walk, no
// tokenization, which is what makes snapshot-served keyword search skip
// the expensive part of Build. Malformed input returns an error rather
// than panicking.
func Unflatten(doc *xmltree.Document, f *Flat) (*Index, error) {
	if f == nil {
		return nil, fmt.Errorf("keyword: nil flat form")
	}
	n := int32(len(doc.Nodes))
	nw := len(f.WordOff) - 1
	if nw < 0 || len(f.PostOff) != nw+1 {
		return nil, fmt.Errorf("keyword: word columns disagree: %d word offsets, %d postings offsets",
			len(f.WordOff), len(f.PostOff))
	}
	if len(f.EntryOrd) != len(f.EntryTF) {
		return nil, fmt.Errorf("keyword: %d entry ordinals vs %d tfs", len(f.EntryOrd), len(f.EntryTF))
	}
	ix := &Index{
		scopeTag: f.ScopeTag,
		scopes:   make([]*xmltree.Node, len(f.ScopeOrds)),
		postings: make(map[string][]Entry, nw),
		direct:   make(map[string]map[int]int, nw),
		idf:      make(map[string]float64, nw),
	}
	for i, ord := range f.ScopeOrds {
		if ord < 0 || ord >= n {
			return nil, fmt.Errorf("keyword: scope ordinal %d out of range [0, %d)", ord, n)
		}
		ix.scopes[i] = doc.Nodes[ord]
	}
	nScopes := float64(len(ix.scopes))
	for w := 0; w < nw; w++ {
		lo, hi := f.WordOff[w], f.WordOff[w+1]
		if lo < 0 || hi < lo || int(hi) > len(f.Words) {
			return nil, fmt.Errorf("keyword: word %d has invalid span [%d, %d) of %d", w, lo, hi, len(f.Words))
		}
		word := f.Words[lo:hi]
		plo, phi := f.PostOff[w], f.PostOff[w+1]
		if plo < 0 || phi < plo || int(phi) > len(f.EntryOrd) {
			return nil, fmt.Errorf("keyword: word %q has invalid postings span [%d, %d) of %d", word, plo, phi, len(f.EntryOrd))
		}
		list := make([]Entry, 0, phi-plo)
		m := make(map[int]int, phi-plo)
		for i := plo; i < phi; i++ {
			ord := f.EntryOrd[i]
			if ord < 0 || ord >= n {
				return nil, fmt.Errorf("keyword: posting ordinal %d out of range [0, %d)", ord, n)
			}
			list = append(list, Entry{Node: doc.Nodes[ord], TF: int(f.EntryTF[i])})
			m[int(ord)] = int(f.EntryTF[i])
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("keyword: word %q has no postings", word)
		}
		ix.postings[word] = list
		ix.direct[word] = m
		ix.idf[word] = math.Log(1 + nScopes/float64(len(list)))
	}
	return ix, nil
}

// ScopeTag returns the indexed element tag.
func (ix *Index) ScopeTag() string { return ix.scopeTag }
