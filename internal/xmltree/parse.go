package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
)

// Parse reads serialized XML from r and returns the document forest.
// Character data directly under an element becomes the element's Value
// (whitespace-trimmed); attributes become child nodes tagged "@name" so
// that structural predicates can address them uniformly.
//
// Parse reads r once, scans the bytes in one pass straight into Columns
// — each distinct tag stored once, every value appended to one blob,
// subtree sizes patched at end tags — and builds the node slab from
// them. A syntax error names its line. A serving path reads the columns
// alone (ParseColumns); the slab is for callers that walk nodes.
func Parse(r io.Reader) (*Document, error) {
	c, err := ParseColumns(r)
	if err != nil {
		return nil, err
	}
	return c.Build(), nil
}

// ParseColumns is Parse without the node slab: it reads r once and
// returns the columns the scan fills, for a caller that builds the slab
// beside other structures derived from the same columns.
func ParseColumns(r io.Reader) (*Columns, error) {
	in, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return parseColumns(in)
}

// parseColumns scans a whole document into columns that share no bytes
// with in and carry at most an eighth of growth slack.
func parseColumns(in []byte) (*Columns, error) {
	// A node is a start tag or an attribute, which hold a '<' not
	// followed by '/' and an '=' each; a value byte is an input byte.
	// The columns and the value bytes are appended within these bounds,
	// so they never regrow, and copied out at exact length at the end
	// when the bound left slack (exact).
	bound := bytes.Count(in, []byte{'<'}) - bytes.Count(in, []byte("</")) + bytes.Count(in, []byte{'='})
	var (
		s    = scanner{in: in}
		w    = newWriter(bound, len(in))
		name []byte // attribute tag scratch
	)
	for {
		tok, err := s.next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch tok {
		case tokStart:
			w.start(w.intern(s.name))
		case tokAttr:
			name = append(append(name[:0], '@'), s.name...)
			w.set(w.add(w.intern(name)), s.text)
		case tokText:
			w.text(s.text)
		case tokEnd:
			w.end(bytes.TrimSpace(w.pending()))
		case tokEOF:
			c, err := w.finish()
			if err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
			return c, nil
		}
	}
}

// writer appends a document to Columns in preorder, the one way a
// document is made: it interns tags, appends each node's tag id, parent,
// level, position and subtree entry as the node opens, and patches an
// element's value span and subtree size at its end. Parse drives it over
// a whole input, ParseProjected over a window, and Builder by hand.
type writer struct {
	c      Columns
	values []byte
	tagIDs map[string]uint32
	open   []frame // the forest, then the open elements, innermost last
	pend   []byte  // character data of the open elements, innermost last
}

// frame is an open element, or the forest below every open element.
type frame struct {
	parent uint32 // what a child's Parents entry holds: the ordinal + 1, 0 for the forest
	kids   int32  // children so far
	pendAt int    // where the element's character data starts in pend
}

// newWriter returns a writer whose columns hold nodes and whose value
// bytes hold values before they regrow.
func newWriter(nodes, values int) *writer {
	w := &writer{values: make([]byte, 0, values), tagIDs: make(map[string]uint32), open: []frame{{}}}
	c := &w.c
	c.TagIDs, c.Parents, c.Subtree = make([]uint32, 0, nodes), make([]uint32, 0, nodes), make([]uint32, 0, nodes)
	c.Level, c.Pos = make([]int32, 0, nodes), make([]int32, 0, nodes)
	c.ValueLo, c.ValueHi = make([]uint32, 0, nodes), make([]uint32, 0, nodes)
	return w
}

// intern returns tag's id, numbering a tag on its first appearance.
func (w *writer) intern(tag []byte) uint32 {
	if id, ok := w.tagIDs[string(tag)]; ok {
		return id
	}
	return w.number(string(tag))
}

// internString is intern for a tag held in a string, which the tag
// table then shares.
func (w *writer) internString(tag string) uint32 {
	if id, ok := w.tagIDs[tag]; ok {
		return id
	}
	return w.number(tag)
}

// number gives a tag not yet in the tag table the next id.
func (w *writer) number(tag string) uint32 {
	id := uint32(len(w.c.Tags))
	w.c.Tags = append(w.c.Tags, tag)
	w.tagIDs[tag] = id
	return id
}

// add appends a node as the innermost open element's next child, or as
// the forest's next root, and returns its ordinal. Its value is empty
// until set.
func (w *writer) add(tag uint32) uint32 {
	c, f, v := &w.c, &w.open[len(w.open)-1], uint32(len(w.values))
	c.TagIDs, c.Parents, c.Subtree = append(c.TagIDs, tag), append(c.Parents, f.parent), append(c.Subtree, 1)
	c.Level, c.Pos = append(c.Level, int32(len(w.open))), append(c.Pos, f.kids)
	c.ValueLo, c.ValueHi = append(c.ValueLo, v), append(c.ValueHi, v)
	f.kids++
	return uint32(len(c.Parents) - 1)
}

// set sets node ord's value.
func (w *writer) set(ord uint32, value []byte) {
	w.c.ValueLo[ord] = uint32(len(w.values))
	w.values = append(w.values, value...)
	w.c.ValueHi[ord] = uint32(len(w.values))
}

// start appends an element and opens it. Its value and subtree size are
// only known at its end, where they are patched in.
func (w *writer) start(tag uint32) {
	w.open = append(w.open, frame{parent: w.add(tag) + 1, pendAt: len(w.pend)})
}

// text appends character data to the innermost open element's; outside
// every element it is dropped.
func (w *writer) text(b []byte) {
	if len(w.open) > 1 {
		w.pend = append(w.pend, b...)
	}
}

// pending returns the character data of the innermost open element.
func (w *writer) pending() []byte { return w.pend[w.open[len(w.open)-1].pendAt:] }

// end closes the innermost open element with the given value and
// returns its ordinal.
func (w *writer) end(value []byte) uint32 {
	f := w.open[len(w.open)-1]
	el := f.parent - 1
	w.set(el, value)
	w.c.Subtree[el] = uint32(len(w.c.TagIDs)) - el
	w.open, w.pend = w.open[:len(w.open)-1], w.pend[:f.pendAt]
	return el
}

// finish returns the columns, each copied at exact length when it holds
// more than an eighth of slack, or an error when they outgrow int32
// ordinals or uint32 value offsets. Every element must be closed: a
// parse refuses an input that leaves one open, and Builder closes them.
func (w *writer) finish() (*Columns, error) {
	c := w.c // a copy: the columns hold none of the writer's scratch
	if len(c.TagIDs) > math.MaxInt32 || len(w.values) > math.MaxUint32 {
		return nil, fmt.Errorf("%d nodes and %d value bytes exceed the int32 ordinals and uint32 value offsets",
			len(c.TagIDs), len(w.values))
	}
	c.Tags, c.Values = exact(c.Tags), string(w.values)
	c.TagIDs, c.Parents, c.Subtree = exact(c.TagIDs), exact(c.Parents), exact(c.Subtree)
	c.Level, c.Pos = exact(c.Level), exact(c.Pos)
	c.ValueLo, c.ValueHi = exact(c.ValueLo), exact(c.ValueHi)
	return &c, nil
}

// exact returns s, or a copy whose capacity is its length when s holds
// more than an eighth of slack.
func exact[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/8 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// ParseString parses a document from a string.
func ParseString(s string) (*Document, error) { return Parse(strings.NewReader(s)) }

// Serialize writes the document back as indented XML. Attribute nodes
// (tag "@name") are rendered as attributes; order of children is
// preserved. The output is sufficient to round-trip through Parse.
func (d *Document) Serialize(w io.Writer) error {
	for _, r := range d.Roots {
		if err := writeNode(w, r, 0); err != nil {
			return err
		}
	}
	return nil
}

// writtenTag returns how Serialize writes a tag: as it is, or behind a
// prefix Parse strips again when it is a local part that cannot stand
// alone, such as the "0" of <p:0>.
func writtenTag(tag string) string {
	if isName([]byte(tag)) {
		return tag
	}
	return "p:" + tag
}

func writeNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	tag := writtenTag(n.Tag)
	var attrs strings.Builder
	var elems []*Node
	for _, c := range n.Children {
		if strings.HasPrefix(c.Tag, "@") {
			fmt.Fprintf(&attrs, " %s=\"%s\"", writtenTag(c.Tag[1:]), escapeAttr(c.Value))
		} else {
			elems = append(elems, c)
		}
	}
	if len(elems) == 0 && n.Value == "" {
		_, err := fmt.Fprintf(w, "%s<%s%s/>\n", indent, tag, attrs.String())
		return err
	}
	if len(elems) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, tag, attrs.String(), escapeText(n.Value), tag)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>", indent, tag, attrs.String()); err != nil {
		return err
	}
	if n.Value != "" {
		if _, err := io.WriteString(w, escapeText(n.Value)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range elems {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, tag)
	return err
}

// Both escapers write CR as a reference: a raw one would come back as LF.
var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")

func escapeText(s string) string { return textEscaper.Replace(s) }

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;", "\r", "&#13;",
)

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
