package score

import (
	"math"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
)

// Normalization selects how raw idf contributions are rescaled — the
// paper's sparse/dense scoring functions (Section 6.2.2), synthesized to
// simulate datasets with uniform vs. skewed predicate scores.
type Normalization int

const (
	// Raw applies no normalization.
	Raw Normalization = iota
	// Sparse normalizes each predicate's scores to [0, 1] independently
	// (every predicate can contribute up to 1), yielding spread-out final
	// scores and aggressive pruning.
	Sparse
	// Dense normalizes all predicates by the single global maximum, so
	// low-idf predicates contribute little and final scores bunch
	// together, weakening pruning.
	Dense
)

// String returns the normalization name.
func (n Normalization) String() string {
	switch n {
	case Raw:
		return "raw"
	case Sparse:
		return "sparse"
	case Dense:
		return "dense"
	default:
		return "norm(?)"
	}
}

// TFIDF scores bindings with the paper's XML tf*idf. For every query node
// qi it precomputes the idf of the exact component predicate p(q0, qi)
// (the unrelaxed composition of axes from the root) and of its fully
// relaxed form; an exact binding contributes the exact idf, a relaxed
// binding the (never larger) relaxed idf. Per-tuple tf is 1 — a root with
// several ways to satisfy a predicate spawns several tuples, and the
// top-k set keeps its best (AnswerScore aggregates the full Definition
// 4.4 sum when whole-answer scores are wanted).
type TFIDF struct {
	idfExact   []float64
	idfRelaxed []float64
	norm       Normalization
	scale      []float64 // per-node divisor derived from norm
	expected   []float64
}

// StatsSource supplies pre-resolved component-predicate statistics — a
// corpus structure synopsis (internal/synopsis), or a Memo in front of
// one — so CollectStats need not touch the index for them. ok must be
// false whenever the source cannot answer the node's predicate exactly
// (content predicates, for a synopsis); CollectStats then walks them.
type StatsSource interface {
	ComponentStats(q *pattern.Query, id int) (exact, relaxed index.PredicateStats, ok bool)
}

// Stats holds, per query node id, the database statistics of component
// predicate p(q0, qi) in its exact form (the unrelaxed composition of
// axes from the root) and its fully relaxed form (any descendant). It is
// the one statistics product: the tf*idf scorer reads its idfs from it,
// and core derives the size-based router's fanout and selectivity and
// the cost-based server order from the same values.
type Stats struct {
	Exact, Relaxed []index.PredicateStats
}

// CollectStats is the single statistics producer: one pass per query
// node, answered by src where it can (value-free predicates on a
// synopsis, walked ones on a Memo), else from its postings (postingStats). It
// is a whole-corpus quantity: ix enumerates every node of the root tag
// and of each query tag, as every index.Source does. Every src yields
// exactly the numbers the posting walk produces.
func CollectStats(ix index.Source, src StatsSource, q *pattern.Query) Stats {
	n := q.Size()
	st := Stats{Exact: make([]index.PredicateStats, n), Relaxed: make([]index.PredicateStats, n)}
	for id := 0; id < n; id++ {
		resolved := false
		if src != nil {
			st.Exact[id], st.Relaxed[id], resolved = src.ComponentStats(q, id)
		}
		if !resolved {
			st.Exact[id], st.Relaxed[id] = postingStats(ix, q, id)
		}
	}
	return st
}

// ForAxis returns the statistics describing a server whose structural
// probe for node id runs on axis: a Child probe happens exactly when the
// composed root path is one unrelaxable pc edge — the exact component
// predicate — and every Descendant probe sees what the relaxed one
// counts (relax.ServerPlan.ProbeAxis).
func (st Stats) ForAxis(id int, axis dewey.Axis) index.PredicateStats {
	if axis == dewey.Child {
		return st.Exact[id]
	}
	return st.Relaxed[id]
}

// NewTFIDF builds a tf*idf scorer for q against the indexed database ix.
func NewTFIDF(ix index.Source, q *pattern.Query, norm Normalization) *TFIDF {
	return NewTFIDFFromStats(CollectStats(ix, nil, q), norm)
}

// NewTFIDFFromStats builds the scorer from already collected statistics,
// so a caller that also needs them for routing (core.CompilePlan) pays
// for one pass.
func NewTFIDFFromStats(st Stats, norm Normalization) *TFIDF {
	n := len(st.Exact)
	s := &TFIDF{
		idfExact:   make([]float64, n),
		idfRelaxed: make([]float64, n),
		norm:       norm,
		scale:      make([]float64, n),
		expected:   make([]float64, n),
	}
	rootCount := st.Exact[0].RootCount
	for id := 0; id < n; id++ {
		exactStats, relaxedStats := st.Exact[id], st.Relaxed[id]
		s.idfExact[id] = idf(rootCount, exactStats.Satisfying)
		s.idfRelaxed[id] = idf(rootCount, relaxedStats.Satisfying)
		if s.idfRelaxed[id] > s.idfExact[id] {
			// Guard: relaxation can only widen the satisfying set, but
			// smoothing could in principle invert degenerate cases.
			s.idfRelaxed[id] = s.idfExact[id]
		}
		// Expected contribution ≈ selectivity-weighted average of the
		// two variants: of the roots satisfying the relaxed predicate,
		// the exactly-satisfying fraction earns the exact idf.
		if relaxedStats.Satisfying > 0 {
			pExact := float64(exactStats.Satisfying) / float64(relaxedStats.Satisfying)
			s.expected[id] = pExact*s.idfExact[id] + (1-pExact)*s.idfRelaxed[id]
		}
	}
	var global float64
	for id := 0; id < n; id++ {
		if s.idfExact[id] > global {
			global = s.idfExact[id]
		}
	}
	for id := 0; id < n; id++ {
		switch norm {
		case Sparse:
			s.scale[id] = s.idfExact[id]
		case Dense:
			s.scale[id] = global
		default:
			s.scale[id] = 1
		}
		if s.scale[id] == 0 {
			s.scale[id] = 1
		}
	}
	return s
}

// idf is Definition 4.2 with add-one smoothing so that predicates
// satisfied by every root still separate from unsatisfiable ones:
// log(1 + rootCount/satisfying); an unsatisfiable predicate takes the
// maximum log(1 + rootCount).
func idf(rootCount, satisfying int) float64 {
	if rootCount == 0 {
		return 0
	}
	if satisfying == 0 {
		return math.Log(1 + float64(rootCount))
	}
	return math.Log(1 + float64(rootCount)/float64(satisfying))
}

// postingStats computes database statistics for the exact and relaxed
// variants of component predicate p(q0, qi). The root's own predicate
// counts the roots; every other one is computed from the posting side:
// the qi postings are walked in document order and each is credited to
// its enclosing q0 ancestors, found through the parent column. The q0
// ancestors of successive postings nest, so the ones still open form a
// stack: a root is closed — and its tf pair accumulated — when a posting
// falls outside it, and opened the first time a posting falls inside it.
// Every (root, posting) pair a probe of each root would visit is counted
// exactly once, at O(|postings| × depth) whatever the number of roots;
// every q0 ancestor is one of ix.Ords(q0) because ix is whole.
func postingStats(ix index.Source, q *pattern.Query, id int) (exact, relaxed index.PredicateStats) {
	doc := ix.Cols()
	node := q.Nodes[id]
	roots := ix.Ords(q.Root().Tag, index.ValueTest{})
	exact.RootCount, relaxed.RootCount = len(roots), len(roots)
	if id == 0 {
		// The root's own predicate relates it to the virtual document
		// root: a[parent::doc-root]. Exact requires a forest root for pc.
		for _, r := range roots {
			relaxed.Satisfying++
			relaxed.TotalPairs++
			if node.Axis != dewey.Child || doc.Level[r] == 1 {
				exact.Satisfying++
				exact.TotalPairs++
			}
		}
		exact.MaxTF, relaxed.MaxTF = 1, 1
		return exact, relaxed
	}
	isRoot := ix.Probe(q.Root().Tag, index.ValueTest{})
	pp := relax.ComposePath(q, 0, id)
	type openRoot struct {
		root               int32
		tfExact, tfRelaxed int
	}
	var open []openRoot
	var fresh []int32 // the posting's not yet open q0 ancestors, innermost first
	// closeBelow closes the open roots deeper than level.
	closeBelow := func(level int32) {
		for len(open) > 0 && doc.Level[open[len(open)-1].root] > level {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			accumulate(&exact, top.tfExact)
			accumulate(&relaxed, top.tfRelaxed)
		}
	}
	for _, o := range ix.Ords(node.Tag, index.Test(node.ValueOp, node.Value)) {
		// One climb from the posting: an open root deeper than the
		// ancestor in hand is not on its root path — the posting has
		// left it — and the climb ends at the innermost open root that
		// is, below which every open root encloses the posting too.
		// Levels and parents only: no Dewey component is read.
		c := int32(o)
		fresh = fresh[:0]
		a := doc.Parent(c)
		for ; a >= 0; a = doc.Parent(a) {
			closeBelow(doc.Level[a])
			if len(open) > 0 && open[len(open)-1].root == a {
				break
			}
			if isRoot.Has(a) {
				fresh = append(fresh, a)
			}
		}
		if a < 0 {
			closeBelow(0)
		}
		for i := len(fresh) - 1; i >= 0; i-- {
			open = append(open, openRoot{root: fresh[i]})
		}
		for i := range open {
			open[i].tfRelaxed++
			if pp.DepthHoldsExact(int(doc.Level[c] - doc.Level[open[i].root])) {
				open[i].tfExact++
			}
		}
	}
	closeBelow(0)
	return exact, relaxed
}

func accumulate(st *index.PredicateStats, tf int) {
	if tf > 0 {
		st.Satisfying++
		st.TotalPairs += tf
		if tf > st.MaxTF {
			st.MaxTF = tf
		}
	}
}

// Contribution implements Scorer.
func (s *TFIDF) Contribution(nodeID int, v Variant, _ int32) float64 {
	switch v {
	case Exact:
		return s.idfExact[nodeID] / s.scale[nodeID]
	case Relaxed:
		return s.idfRelaxed[nodeID] / s.scale[nodeID]
	default:
		return 0
	}
}

// MaxContribution implements Scorer.
func (s *TFIDF) MaxContribution(nodeID int) float64 {
	return s.idfExact[nodeID] / s.scale[nodeID]
}

// MinContribution implements Scorer.
func (s *TFIDF) MinContribution(nodeID int) float64 {
	return s.idfRelaxed[nodeID] / s.scale[nodeID]
}

// ExpectedContribution implements Scorer.
func (s *TFIDF) ExpectedContribution(nodeID int) float64 {
	return s.expected[nodeID] / s.scale[nodeID]
}

// IDF exposes the raw (unnormalized) idf values of the exact and relaxed
// variants of node nodeID's component predicate, for inspection and
// tests.
func (s *TFIDF) IDF(nodeID int) (exact, relaxed float64) {
	return s.idfExact[nodeID], s.idfRelaxed[nodeID]
}

// AnswerScore computes Definition 4.4's whole-answer score for the root
// binding with ordinal root: Σ over component predicates of
// idf(p)·tf(p, root), using the
// exact predicate variants (an exact-match score; relaxation-aware
// ranking flows through the engine's per-tuple scores instead). The same
// normalization as the scorer applies.
func AnswerScore(ix index.Source, q *pattern.Query, s *TFIDF, root int32) float64 {
	doc := ix.Cols()
	total := 0.0
	var buf []int32 // probe scratch reused across query nodes
	for id := 0; id < q.Size(); id++ {
		qn := q.Nodes[id]
		var tf int
		if id == 0 {
			if qn.Axis != dewey.Child || doc.Level[root] == 1 {
				tf = 1
			}
		} else {
			pp := relax.ComposePath(q, 0, id)
			p := ix.Probe(qn.Tag, index.Test(qn.ValueOp, qn.Value))
			buf = p.Append(buf[:0], root, dewey.Descendant)
			for _, c := range buf {
				if pp.HoldsExact(doc, root, c) {
					tf++
				}
			}
		}
		total += s.idfExact[id] / s.scale[id] * float64(tf)
	}
	return total
}
