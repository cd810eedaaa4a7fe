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
// Dewey IDs are derived over the projected tree; because whole subtrees
// are dropped (never intermediate nodes), prefix relations and node
// levels match the original document's.
//
// ParseProjected reads r a window at a time and never holds the whole
// input: what it holds follows the projected tree and the longest token.
func ParseProjected(r io.Reader, keep func(tag string) bool) (*Document, error) {
	return parseProjected(r, keep, 64<<10)
}

// parseProjected is ParseProjected over a window of the given initial
// size.
func parseProjected(r io.Reader, keep func(tag string) bool, window int) (*Document, error) {
	// frame is a pending open element: it materializes if its own tag is
	// kept or any descendant materialized under it.
	type frame struct {
		tag      string
		kept     bool
		textAt   int     // where a kept element's character data starts in text
		children []*Node // materialized children, in document order
	}
	var (
		s     = newWindow(r, window)
		doc   = NewDocument()
		stack []frame
		text  []byte // character data of the kept open elements, innermost last
		tags  = make(map[string]string)
		name  []byte // attribute tag scratch
	)
	intern := func(b []byte) string {
		tag, ok := tags[string(b)]
		if !ok {
			tag = string(b)
			tags[tag] = tag
		}
		return tag
	}
	for {
		tok, err := s.next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: projected parse: %w", err)
		}
		switch tok {
		case tokStart:
			tag := intern(s.name)
			stack = append(stack, frame{tag: tag, kept: keep(tag), textAt: len(text)})
		case tokAttr:
			name = append(append(name[:0], '@'), s.name...)
			if tag := intern(name); keep(tag) {
				f := &stack[len(stack)-1]
				f.children = append(f.children, &Node{Tag: tag, Value: string(s.text)})
			}
		case tokText:
			if len(stack) > 0 && stack[len(stack)-1].kept {
				text = append(text, s.text...)
			}
		case tokEnd:
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !f.kept && len(f.children) == 0 {
				continue // drop silently
			}
			n := &Node{Tag: f.tag, Children: f.children}
			if f.kept {
				n.Value = string(bytes.TrimSpace(text[f.textAt:]))
				text = text[:f.textAt]
			}
			if len(stack) == 0 {
				doc.Roots = append(doc.Roots, n)
			} else {
				parent := &stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
		case tokEOF:
			// Parent links, positions and levels over the projected forest.
			doc.renumber()
			return doc, nil
		}
	}
}

// KeepTags returns a keep function accepting exactly the given tags.
func KeepTags(tags ...string) func(string) bool {
	set := make(map[string]bool, len(tags))
	for _, t := range tags {
		set[t] = true
	}
	return func(tag string) bool { return set[tag] }
}
