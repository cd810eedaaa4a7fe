// Package dewey implements Dewey identifiers for XML nodes.
//
// A Dewey ID encodes the path from the document root to a node as the
// sequence of child ordinals along that path: the root of a tree is []
// (empty), its third child is [2], that child's first child is [2 0], and
// so on. Dewey IDs make the XPath structural axes cheap to decide:
//
//   - parent/child:        child's ID is the parent's ID plus one component
//   - ancestor/descendant: ancestor's ID is a strict prefix
//   - document order:      lexicographic comparison
//
// The paper evaluates its structural joins on Dewey IDs (Section 6.2.1).
// Here no node stores one: xmltree derives a node's ID on demand from
// the positions on its root path (xmltree.ID). IDs name answers, which
// the daemon and the CLIs render, and the reference evaluator
// internal/naive compares their components, deriving each node's ID once
// per evaluation. The Whirlpool servers (internal/core) and the
// structural joins (internal/joins) decide pc and ad on preorder
// intervals and levels (xmltree.Node.Contains, xmltree.Columns.Contains):
// the same relations, read without building an ID.
package dewey

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey identifier: the child-ordinal path from the root.
// The zero value (nil) identifies a tree root. IDs are treated as
// immutable.
type ID []int

// Level returns the depth of the node: 0 for a root.
func (id ID) Level() int { return len(id) }

// Compare orders IDs in document order (preorder): -1 if id precedes
// other, +1 if it follows, 0 if equal. An ancestor precedes its
// descendants.
func (id ID) Compare(other ID) int {
	n := len(id)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(id) < len(other):
		return -1
	case len(id) > len(other):
		return 1
	}
	return 0
}

// Equal reports whether the two IDs address the same node.
func (id ID) Equal(other ID) bool { return id.Compare(other) == 0 }

// IsAncestorOf reports whether id is a strict ancestor of other, i.e.
// id is a strict prefix of other.
func (id ID) IsAncestorOf(other ID) bool {
	if len(id) >= len(other) {
		return false
	}
	for i, c := range id {
		if other[i] != c {
			return false
		}
	}
	return true
}

// IsParentOf reports whether other is a direct child of id.
func (id ID) IsParentOf(other ID) bool {
	return len(other) == len(id)+1 && id.IsAncestorOf(other)
}

// IsDescendantOf reports whether id is a strict descendant of other.
func (id ID) IsDescendantOf(other ID) bool { return other.IsAncestorOf(id) }

// IsChildOf reports whether id is a direct child of other.
func (id ID) IsChildOf(other ID) bool { return other.IsParentOf(id) }

// String renders the ID in the conventional dotted form, e.g. "2.0.4".
// A root renders as "·".
func (id ID) String() string { return string(id.Append(make([]byte, 0, 4*len(id)))) }

// Append appends the dotted form String returns to dst.
func (id ID) Append(dst []byte) []byte {
	if len(id) == 0 {
		return append(dst, "·"...)
	}
	for i, c := range id {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

// Parse parses the dotted form produced by String. "·" and "" both parse
// to the root ID.
func Parse(s string) (ID, error) {
	if s == "" || s == "·" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	id := make(ID, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("dewey: invalid component %q in %q", p, s)
		}
		if v < 0 {
			return nil, fmt.Errorf("dewey: negative component %d in %q", v, s)
		}
		id[i] = v
	}
	return id, nil
}
