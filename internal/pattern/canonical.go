package pattern

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/dewey"
)

// CanonicalKey returns a canonical identity string for the query's
// shape: two queries get the same key iff they are isomorphic as tree
// patterns — same tags, axes and content predicates, with predicate
// declaration order ignored. It is the plan-cache key: `/a[./b and
// ./c]` and `/a[./c and ./b]` plan (and answer) identically, so they
// must share one cache entry, while structurally distinct queries must
// never collide.
//
// The encoding is injective on canonicalized shapes: each node renders
// as axis token + tag + optional `{op:len:value}` (the value is
// length-prefixed so no value can forge the bracket structure around
// it) + the node's child keys, sorted and joined inside `[` `|` `]`.
// Tags cannot contain the delimiter characters (the parser rejects
// them), so the rendering parses back unambiguously.
func CanonicalKey(q *Query) string {
	var b strings.Builder
	writeCanonical(&b, q, q.Root())
	return b.String()
}

// Canonicalize returns a deep copy of q with every node's predicate
// list sorted into canonical order (recursively, by the children's own
// canonical keys; ties keep declaration order). Two queries with equal
// CanonicalKey have canonicalizations that render to the same String().
// Node IDs are renumbered in the new declaration order, preserving the
// Validate invariant that parents precede children.
func Canonicalize(q *Query) *Query {
	out := New(q.Root().Tag, q.Root().Axis)
	out.Nodes[0].Value = q.Root().Value
	out.Nodes[0].ValueOp = q.Root().ValueOp
	var addSorted func(srcID, dstID int)
	addSorted = func(srcID, dstID int) {
		src := q.Nodes[srcID]
		order := append([]int(nil), src.Children...)
		sort.SliceStable(order, func(i, j int) bool {
			return nodeKey(q, q.Nodes[order[i]]) < nodeKey(q, q.Nodes[order[j]])
		})
		for _, cid := range order {
			c := q.Nodes[cid]
			id := out.AddValueOp(dstID, c.Tag, c.Axis, c.ValueOp, c.Value)
			addSorted(cid, id)
		}
	}
	addSorted(0, 0)
	return out
}

func nodeKey(q *Query, n *Node) string {
	var b strings.Builder
	writeCanonical(&b, q, n)
	return b.String()
}

func writeCanonical(b *strings.Builder, q *Query, n *Node) {
	if n.Axis == dewey.Descendant {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	b.WriteString(n.Tag)
	if n.Value != "" || n.ValueOp != "" {
		op := n.ValueOp
		if op == "" {
			op = "="
		}
		b.WriteString("{")
		b.WriteString(op)
		b.WriteString(":")
		b.WriteString(strconv.Itoa(len(n.Value)))
		b.WriteString(":")
		b.WriteString(n.Value)
		b.WriteString("}")
	}
	if len(n.Children) == 0 {
		return
	}
	keys := make([]string, len(n.Children))
	for i, cid := range n.Children {
		keys[i] = nodeKey(q, q.Nodes[cid])
	}
	sort.Strings(keys)
	b.WriteString("[")
	for i, k := range keys {
		if i > 0 {
			b.WriteString("|")
		}
		b.WriteString(k)
	}
	b.WriteString("]")
}
