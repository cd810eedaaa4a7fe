package xmltree

import (
	"bytes"
	"fmt"
	"io"
)

// ParseProjected parses XML from r keeping only the nodes whose tag the
// keep function accepts, plus every ancestor of a kept node (so the
// structural relationships among kept nodes survive). This implements
// the paper's observation that only "nodes involved in the query are
// stored in indexes" (Section 6.2.1): projecting a large document to a
// query's tags shrinks memory by orders of magnitude while preserving
// levels, ancestor/descendant relationships and sibling order — every
// predicate the engine evaluates.
//
// The columns are Parse's over the projected forest: positions count
// the kept siblings, tags are numbered in order of first appearance
// among the kept nodes, and an ancestor kept only for its descendants
// has no value. Because whole subtrees are dropped (never intermediate
// nodes), prefix relations and node levels match the original
// document's.
//
// ParseProjected reads r a window at a time and never holds the whole
// input: what it holds follows the projected tree and the longest token.
func ParseProjected(r io.Reader, keep func(tag string) bool) (*Columns, error) {
	return parseProjected(r, keep, 64<<10)
}

// parseProjected is ParseProjected over a window of the given initial
// size. Every element is appended as it starts and truncated at its end
// when neither it nor any descendant was kept; an attribute is appended
// only when kept.
func parseProjected(r io.Reader, keep func(tag string) bool, window int) (*Columns, error) {
	// element is an open element: whether its tag is kept, and how many
	// tags were numbered before it, to which a dropped element rolls the
	// tag table back.
	type element struct {
		kept bool
		tags int
	}
	// tag is a tag met: the one string every node carrying it shares,
	// and keep's verdict on it. seen holds one per tag, so that a tag
	// dropped and met again costs no allocation and no second verdict.
	type tag struct {
		name string
		kept bool
	}
	var (
		s     = newWindow(r, window)
		w     = newWriter(0, 0)
		stack []element
		seen  = make(map[string]tag)
		name  []byte // attribute tag scratch
	)
	lookup := func(b []byte) tag {
		t, ok := seen[string(b)]
		if !ok {
			t.name = string(b)
			t.kept = keep(t.name)
			seen[t.name] = t
		}
		return t
	}
	for {
		tok, err := s.next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: projected parse: %w", err)
		}
		switch tok {
		case tokStart:
			t := lookup(s.name)
			stack = append(stack, element{kept: t.kept, tags: len(w.c.Tags)})
			w.start(w.internString(t.name))
		case tokAttr:
			name = append(append(name[:0], '@'), s.name...)
			if t := lookup(name); t.kept {
				w.set(w.add(w.internString(t.name)), s.text)
			}
		case tokText:
			if n := len(stack); n > 0 && stack[n-1].kept {
				w.text(s.text)
			}
		case tokEnd:
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if el := w.end(bytes.TrimSpace(w.pending())); !e.kept && int(el) == w.c.Len()-1 {
				w.drop(el, e.tags)
			}
		case tokEOF:
			c, err := w.finish()
			if err != nil {
				return nil, fmt.Errorf("xmltree: projected parse: %w", err)
			}
			return c, nil
		}
	}
}

// drop removes el, an element just ended and the last node, and the tags
// numbered from tags on: el's own, when it was the first to carry it.
func (w *writer) drop(el uint32, tags int) {
	for _, t := range w.c.Tags[tags:] {
		delete(w.tagIDs, t)
	}
	c := &w.c
	c.Tags = c.Tags[:tags]
	w.values = w.values[:c.ValueLo[el]]
	c.TagIDs, c.Parents, c.Subtree = c.TagIDs[:el], c.Parents[:el], c.Subtree[:el]
	c.Level, c.Pos, c.ValueLo, c.ValueHi = c.Level[:el], c.Pos[:el], c.ValueLo[:el], c.ValueHi[:el]
	w.open[len(w.open)-1].kids--
}

// KeepTags returns a keep function accepting exactly the given tags.
func KeepTags(tags ...string) func(string) bool {
	set := make(map[string]bool, len(tags))
	for _, t := range tags {
		set[t] = true
	}
	return func(tag string) bool { return set[tag] }
}
