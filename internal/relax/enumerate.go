package relax

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/pattern"
)

// RelaxedQuery is one member of a query's relaxation closure, together
// with the mapping from its node IDs back to the original query's.
type RelaxedQuery struct {
	Query *pattern.Query
	// NodeMap[i] is the original query node ID of relaxed node i.
	NodeMap []int
}

// Enumerate computes the relaxation closure of q under the enabled
// relaxations, as a rewriting-based evaluator would (the strategy the
// paper's plan-relaxation approach [2] competes against). The original
// query is always the first element. The closure grows exponentially
// with query size — limit caps the number of queries returned (0 means
// no cap); the boolean result reports whether the closure was truncated.
func Enumerate(q *pattern.Query, r Relaxation, limit int) ([]RelaxedQuery, bool) {
	start := RelaxedQuery{Query: q.Clone(), NodeMap: identityMap(q.Size())}
	seen := map[string]bool{canonical(start): true}
	out := []RelaxedQuery{start}
	queue := []RelaxedQuery{start}
	truncated := false
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range rewrites(cur, r) {
			key := canonical(next)
			if seen[key] {
				continue
			}
			seen[key] = true
			if limit > 0 && len(out) >= limit {
				truncated = true
				continue
			}
			out = append(out, next)
			queue = append(queue, next)
		}
	}
	return out, truncated
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// canonical renders a dedup key: the query string plus the node map (two
// structurally equal queries with different provenance are kept once).
func canonical(rq RelaxedQuery) string {
	return rq.Query.String()
}

// rewrites applies every enabled single-step relaxation to rq.
func rewrites(rq RelaxedQuery, r Relaxation) []RelaxedQuery {
	var out []RelaxedQuery
	q := rq.Query
	if r.Has(EdgeGeneralization) {
		for id := 0; id < q.Size(); id++ {
			if q.Nodes[id].Axis == dewey.Child {
				c := rq.clone()
				c.Query.Nodes[id].Axis = dewey.Descendant
				out = append(out, c)
			}
		}
	}
	if r.Has(LeafDeletion) {
		for id := 1; id < q.Size(); id++ {
			if len(q.Nodes[id].Children) == 0 {
				out = append(out, rq.deleteLeaf(id))
			}
		}
	}
	if r.Has(SubtreePromotion) {
		for id := 1; id < q.Size(); id++ {
			if q.Nodes[id].Parent <= 0 {
				continue // already anchored at the root
			}
			out = append(out, rq.promote(id))
		}
	}
	return out
}

func (rq RelaxedQuery) clone() RelaxedQuery {
	return RelaxedQuery{
		Query:   rq.Query.Clone(),
		NodeMap: append([]int(nil), rq.NodeMap...),
	}
}

// deleteLeaf removes leaf node id, renumbering the remaining nodes.
func (rq RelaxedQuery) deleteLeaf(id int) RelaxedQuery {
	old := rq.Query
	remap := make([]int, old.Size())
	next := 0
	for i := 0; i < old.Size(); i++ {
		if i == id {
			remap[i] = -1
			continue
		}
		remap[i] = next
		next++
	}
	nq := &pattern.Query{}
	nm := make([]int, 0, old.Size()-1)
	for i, n := range old.Nodes {
		if i == id {
			continue
		}
		cp := *n
		cp.ID = remap[i]
		if cp.Parent >= 0 {
			cp.Parent = remap[cp.Parent]
		}
		cp.Children = nil
		for _, c := range n.Children {
			if c != id {
				cp.Children = append(cp.Children, remap[c])
			}
		}
		nq.Nodes = append(nq.Nodes, &cp)
		nm = append(nm, rq.NodeMap[i])
	}
	return RelaxedQuery{Query: nq, NodeMap: nm}
}

// promote re-anchors node id (and its subtree) to its grandparent with
// an ad edge. Node IDs keep their declaration order, which preserves the
// parent-before-child invariant (the grandparent's ID is smaller still).
func (rq RelaxedQuery) promote(id int) RelaxedQuery {
	c := rq.clone()
	q := c.Query
	n := q.Nodes[id]
	parent := n.Parent
	grand := q.Nodes[parent].Parent
	// Detach from the parent.
	kids := q.Nodes[parent].Children[:0]
	for _, k := range q.Nodes[parent].Children {
		if k != id {
			kids = append(kids, k)
		}
	}
	q.Nodes[parent].Children = kids
	// Attach to the grandparent, keeping children sorted for a stable
	// canonical form.
	n.Parent = grand
	n.Axis = dewey.Descendant
	q.Nodes[grand].Children = append(q.Nodes[grand].Children, id)
	sort.Ints(q.Nodes[grand].Children)
	return c
}
