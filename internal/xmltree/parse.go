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
		s      = scanner{in: in}
		c      Columns
		values = make([]byte, 0, len(in))
		tagIDs = make(map[string]uint32)
		open   []uint32 // ordinals of the open elements
		pend   []byte   // character data of the open elements, innermost last
		pendAt []int    // where each open element's data starts in pend
		kids   []int32  // children each open element has so far
		roots  int32    // forest roots so far
		name   []byte   // attribute tag scratch
	)
	c.TagIDs, c.Parents, c.Subtree = make([]uint32, 0, bound), make([]uint32, 0, bound), make([]uint32, 0, bound)
	c.Level, c.Pos = make([]int32, 0, bound), make([]int32, 0, bound)
	c.ValueLo, c.ValueHi = make([]uint32, 0, bound), make([]uint32, 0, bound)
	intern := func(tag []byte) uint32 {
		id, ok := tagIDs[string(tag)]
		if !ok {
			id = uint32(len(c.Tags))
			c.Tags = append(c.Tags, string(tag))
			tagIDs[c.Tags[id]] = id
		}
		return id
	}
	add := func(tag uint32, value []byte) uint32 {
		parent, pos := uint32(0), &roots
		if d := len(open); d > 0 {
			parent, pos = open[d-1]+1, &kids[d-1]
		}
		c.TagIDs, c.Parents, c.Subtree = append(c.TagIDs, tag), append(c.Parents, parent), append(c.Subtree, 1)
		c.Level, c.Pos = append(c.Level, int32(len(open))+1), append(c.Pos, *pos)
		*pos++
		c.ValueLo = append(c.ValueLo, uint32(len(values)))
		values = append(values, value...)
		c.ValueHi = append(c.ValueHi, uint32(len(values)))
		return uint32(len(c.TagIDs) - 1)
	}
	for {
		tok, err := s.next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch tok {
		case tokStart:
			// The element's value and subtree size are only known at its
			// end, where they are patched in.
			open = append(open, add(intern(s.name), nil))
			pendAt, kids = append(pendAt, len(pend)), append(kids, 0)
		case tokAttr:
			name = append(append(name[:0], '@'), s.name...)
			add(intern(name), s.text)
		case tokText:
			if len(open) > 0 {
				pend = append(pend, s.text...)
			}
		case tokEnd:
			d := len(open) - 1
			el := open[d]
			c.ValueLo[el] = uint32(len(values))
			values = append(values, bytes.TrimSpace(pend[pendAt[d]:])...)
			c.ValueHi[el] = uint32(len(values))
			c.Subtree[el] = uint32(len(c.TagIDs)) - el
			open, pend, pendAt, kids = open[:d], pend[:pendAt[d]], pendAt[:d], kids[:d]
		case tokEOF:
			if len(c.TagIDs) > math.MaxInt32 || len(values) > math.MaxUint32 {
				return nil, fmt.Errorf("xmltree: parse: %d nodes and %d value bytes exceed the int32 ordinals and uint32 value offsets",
					len(c.TagIDs), len(values))
			}
			c.Tags, c.Values = exact(c.Tags), string(values)
			c.TagIDs, c.Parents, c.Subtree = exact(c.TagIDs), exact(c.Parents), exact(c.Subtree)
			c.Level, c.Pos = exact(c.Level), exact(c.Pos)
			c.ValueLo, c.ValueHi = exact(c.ValueLo), exact(c.ValueHi)
			return &c, nil
		}
	}
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

// SerializedSize returns the number of bytes Serialize would write. It is
// used to calibrate generated documents against the paper's 1/10/50 MB
// document sizes.
func (d *Document) SerializedSize() int {
	var c countWriter
	_ = d.Serialize(&c)
	return int(c)
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
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
