package xmltree

// Builder offers a fluent way to construct documents programmatically —
// used by tests, examples and the XMark generator. It tracks a cursor
// node; Open descends, Close ascends, Leaf adds a valued child without
// moving the cursor.
type Builder struct {
	doc    *Document
	cursor *Node
}

// NewBuilder returns a Builder over a fresh document.
func NewBuilder() *Builder { return &Builder{doc: NewDocument()} }

// Root starts a new top-level element and moves the cursor to it.
func (b *Builder) Root(tag string) *Builder {
	n := newNode(tag, "", nil, len(b.doc.Roots))
	b.doc.Roots = append(b.doc.Roots, n)
	b.cursor = n
	return b
}

// Open appends a child element to the cursor and descends into it.
func (b *Builder) Open(tag string) *Builder {
	b.cursor = b.doc.AddChild(b.cursor, tag, "")
	return b
}

// Leaf appends a valued child element without moving the cursor.
func (b *Builder) Leaf(tag, value string) *Builder {
	b.doc.AddChild(b.cursor, tag, value)
	return b
}

// Text sets the cursor element's own text value.
func (b *Builder) Text(value string) *Builder {
	b.cursor.Value = value
	return b
}

// Close ascends to the cursor's parent. Closing a root leaves the cursor
// nil; a following Open would panic, which surfaces builder misuse early.
func (b *Builder) Close() *Builder {
	b.cursor = b.cursor.Parent
	return b
}

// Doc finalizes preorder numbering and returns the document.
func (b *Builder) Doc() *Document {
	b.doc.renumber()
	return b.doc
}
