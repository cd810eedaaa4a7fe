package core

// match is a partial or complete match: one tuple of bindings flowing
// through the servers. A binding is a document node's preorder
// ordinal. Query node i is in one of three states:
//
//   - unvisited: visited bit clear, bindings[i] == -1
//   - bound:     visited bit set,   bindings[i] >= 0
//   - missing:   visited and missing bits set, bindings[i] == -1
//     (the node was relaxed away by leaf deletion)
//
// score grows monotonically as servers add non-negative contributions;
// maxFinal = score + Σ maximum contributions of unvisited servers is the
// admissible upper bound pruning compares against currentTopK.
type match struct {
	bindings []int32
	visited  uint64
	missing  uint64
	score    float64
	maxFinal float64
	seq      int64
}

func (m *match) isVisited(id int) bool { return m.visited&(1<<uint(id)) != 0 }
func (m *match) isMissing(id int) bool { return m.missing&(1<<uint(id)) != 0 }

// complete reports whether every server has processed the match.
func (m *match) complete(all uint64) bool { return m.visited == all }

// rootOrd returns the document ordinal of the root binding, the key the
// top-k set deduplicates on.
func (m *match) rootOrd() int { return int(m.bindings[0]) }

// extendInto writes into ext the clone of m with query node id bound to
// n (-1 = missing), contributing c to the score, and returns ext, whose
// bindings slice must already have m's width (arena matches do).
// maxContrib is the server's precomputed maximum contribution that the
// maxFinal bound releases.
func (m *match) extendInto(ext *match, id int, n int32, c, maxContrib float64, seq int64) *match {
	copy(ext.bindings, m.bindings)
	ext.bindings[id] = n
	ext.visited = m.visited | 1<<uint(id)
	ext.missing = m.missing
	ext.score = m.score + c
	ext.maxFinal = m.maxFinal - maxContrib + c
	ext.seq = seq
	if n < 0 {
		ext.missing |= 1 << uint(id)
	}
	return ext
}
