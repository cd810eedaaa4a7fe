package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strings"
)

// referenceColumns is the encoding/xml token loop Parse used before the
// scanner replaced it, kept as the oracle FuzzParse holds the scanner
// to: the same input must be refused by both or yield the same columns.
// Its levels and positions are the ones Shape derives from the parents,
// as a snapshot open derives them.
func referenceColumns(r io.Reader) (*Columns, error) {
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
	if err := c.Shape(); err != nil {
		return nil, err
	}
	return &c, nil
}
