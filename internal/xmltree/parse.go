package xmltree

import (
	"bytes"
	"encoding/xml"
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
// Parse streams into Columns — each distinct tag stored once, every
// value appended to one blob — and builds the node slab from them.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true
	var (
		c      Columns
		tagIDs = make(map[string]uint32)
		values strings.Builder
		open   []uint32 // ordinals of the open elements
		texts  [][]byte // character data under each open element, reused per depth
		name   []byte   // tag scratch: a lookup of a known tag allocates nothing
	)
	intern := func(tag []byte) uint32 {
		id, ok := tagIDs[string(tag)]
		if !ok {
			id = uint32(len(c.Tags))
			c.Tags = append(c.Tags, string(tag))
			tagIDs[c.Tags[id]] = id
		}
		return id
	}
	add := func(tag uint32, value string) uint32 {
		ord := uint32(len(c.TagIDs))
		parent := uint32(0)
		if len(open) > 0 {
			parent = open[len(open)-1] + 1
		}
		lo := uint32(values.Len())
		values.WriteString(value)
		c.TagIDs = append(c.TagIDs, tag)
		c.Parents = append(c.Parents, parent)
		c.Subtree = append(c.Subtree, 1)
		c.ValueLo = append(c.ValueLo, lo)
		c.ValueHi = append(c.ValueHi, uint32(values.Len()))
		return ord
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			// The element's value and subtree size are only known at its
			// end, where they are patched in.
			name = append(name[:0], t.Name.Local...)
			el := add(intern(name), "")
			open = append(open, el)
			for _, a := range t.Attr {
				name = append(append(name[:0], '@'), a.Name.Local...)
				add(intern(name), a.Value)
			}
			if len(texts) < len(open) {
				texts = append(texts, nil)
			}
			texts[len(open)-1] = texts[len(open)-1][:0]
		case xml.EndElement:
			if len(open) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			d := len(open) - 1
			el := open[d]
			c.ValueLo[el] = uint32(values.Len())
			values.Write(bytes.TrimSpace(texts[d]))
			c.ValueHi[el] = uint32(values.Len())
			c.Subtree[el] = uint32(len(c.TagIDs)) - el
			open = open[:d]
		case xml.CharData:
			if len(open) > 0 {
				texts[len(open)-1] = append(texts[len(open)-1], t...)
			}
		}
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed element(s)", len(open))
	}
	if len(c.TagIDs) > math.MaxInt32 || values.Len() > math.MaxUint32 {
		return nil, fmt.Errorf("xmltree: parse: %d nodes and %d value bytes exceed the int32 ordinals and uint32 value offsets",
			len(c.TagIDs), values.Len())
	}
	c.Values = values.String()
	return c.Build(), nil
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

func writeNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	var attrs strings.Builder
	var elems []*Node
	for _, c := range n.Children {
		if strings.HasPrefix(c.Tag, "@") {
			fmt.Fprintf(&attrs, " %s=\"%s\"", c.Tag[1:], escapeAttr(c.Value))
		} else {
			elems = append(elems, c)
		}
	}
	if len(elems) == 0 && n.Value == "" {
		_, err := fmt.Fprintf(w, "%s<%s%s/>\n", indent, n.Tag, attrs.String())
		return err
	}
	if len(elems) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, n.Tag, attrs.String(), escapeText(n.Value), n.Tag)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>", indent, n.Tag, attrs.String()); err != nil {
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
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Tag)
	return err
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escapeText(s string) string { return textEscaper.Replace(s) }

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;",
)

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
