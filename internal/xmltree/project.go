package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
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
func ParseProjected(r io.Reader, keep func(tag string) bool) (*Document, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true
	doc := NewDocument()

	// frame is a pending open element: it materializes if its own tag is
	// kept or any descendant materialized under it.
	type frame struct {
		tag      string
		kept     bool
		text     *strings.Builder
		children []*Node // materialized children, in document order
	}
	var stack []*frame

	materialize := func(f *frame) *Node {
		n := &Node{Tag: f.tag}
		if f.text != nil {
			n.Value = strings.TrimSpace(f.text.String())
		}
		n.Children = f.children
		return n
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: projected parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			f := &frame{tag: t.Name.Local, kept: keep(t.Name.Local)}
			if f.kept {
				f.text = &strings.Builder{}
			}
			for _, attr := range t.Attr {
				if keep("@" + attr.Name.Local) {
					f.children = append(f.children, &Node{Tag: "@" + attr.Name.Local, Value: attr.Value})
				}
			}
			stack = append(stack, f)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !f.kept && len(f.children) == 0 {
				continue // drop silently
			}
			n := materialize(f)
			if len(stack) == 0 {
				doc.Roots = append(doc.Roots, n)
			} else {
				parent := stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
		case xml.CharData:
			if len(stack) > 0 && stack[len(stack)-1].text != nil {
				stack[len(stack)-1].text.Write(t)
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed element(s)", len(stack))
	}

	// Parent links, positions and levels over the projected forest.
	doc.renumber()
	return doc, nil
}

// KeepTags returns a keep function accepting exactly the given tags.
func KeepTags(tags ...string) func(string) bool {
	set := make(map[string]bool, len(tags))
	for _, t := range tags {
		set[t] = true
	}
	return func(tag string) bool { return set[tag] }
}
