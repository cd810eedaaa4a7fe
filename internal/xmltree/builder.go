package xmltree

// Builder offers a fluent way to construct documents programmatically —
// used by tests, examples and the figures. It writes the columns in
// preorder as Parse does, so a node is final once the builder moves past
// it: Open appends a child of the open element and descends into it,
// Close ascends, Leaf adds a valued child without descending, and Text
// sets the open element's own value. With no element open, Open and
// Leaf append a forest root, Text does nothing and Close panics.
type Builder struct{ w *writer }

// NewBuilder returns a Builder over a fresh document.
func NewBuilder() *Builder { return &Builder{w: newWriter(0, 0)} }

// Root closes every open element and starts a new top-level element.
func (b *Builder) Root(tag string) *Builder {
	b.closeAll()
	b.w.start(b.w.internString(tag))
	return b
}

// Open appends a child element to the open element and descends into it.
func (b *Builder) Open(tag string) *Builder {
	b.w.start(b.w.internString(tag))
	return b
}

// Leaf appends a valued child element without descending.
func (b *Builder) Leaf(tag, value string) *Builder {
	b.w.set(b.w.add(b.w.internString(tag)), []byte(value))
	return b
}

// Text sets the open element's own text value.
func (b *Builder) Text(value string) *Builder {
	w := b.w
	w.pend = append(w.pend[:w.open[len(w.open)-1].pendAt], value...)
	return b
}

// Close ascends to the open element's parent.
func (b *Builder) Close() *Builder {
	b.w.end(b.w.pending())
	return b
}

// Doc closes every open element and returns the document. The builder
// is spent.
func (b *Builder) Doc() *Document {
	b.closeAll()
	c, err := b.w.finish()
	if err != nil {
		panic("xmltree: Builder: " + err.Error())
	}
	b.w = nil
	return c.Build()
}

func (b *Builder) closeAll() {
	for len(b.w.open) > 1 {
		b.w.end(b.w.pending())
	}
}
