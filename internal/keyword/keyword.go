// Package keyword implements top-k keyword search over XML elements with
// Fagin-family algorithms — the mediator-style related work the paper
// positions Whirlpool against (Section 3, [13, 14], and [19]'s "bag of
// single path queries"). Each scope element (e.g. every <item>) is a
// candidate answer scored Σ over query words of idf(w)·tf(w, element),
// where tf counts occurrences in the element's descendant text.
//
// Two classic algorithms are provided over per-word postings lists sorted
// by descending tf:
//
//   - TA (threshold algorithm): round-robin sorted access plus random
//     access to complete each seen candidate; stops when the threshold
//     (the score an unseen candidate could still reach) drops to the
//     current k-th score.
//   - NRA (no random access): maintains [lower, upper] score bounds per
//     candidate from sorted access only.
//
// Both are cross-checked against a full scan in the tests; their access
// counts are reported so the early-termination behavior is observable.
package keyword

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"

	"repro/internal/xmltree"
)

// ErrBadQuery marks keyword-query validation failures (no searchable
// words, non-positive k). Callers can errors.Is against it to map the
// failure to a client error rather than a server one.
var ErrBadQuery = errors.New("keyword: bad query")

// Tokenize lower-cases s and splits it into maximal alphanumeric runs.
func Tokenize(s string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return words
}

// Entry is one postings entry: a scope element and the term frequency of
// the word within it.
type Entry struct {
	Node *xmltree.Node
	TF   int
}

// Index is an inverted word index over the text of scope elements.
type Index struct {
	scopeTag string
	scopes   []*xmltree.Node
	postings map[string][]Entry     // sorted by TF desc, then Ord asc
	direct   map[string]map[int]int // word -> scope ord -> tf (random access)
	idf      map[string]float64
}

// Build indexes every element with scopeTag in doc: the words of all
// text values in the element's subtree (inclusive) are counted.
func Build(doc *xmltree.Document, scopeTag string) *Index {
	ix := &Index{
		scopeTag: scopeTag,
		postings: make(map[string][]Entry),
		direct:   make(map[string]map[int]int),
		idf:      make(map[string]float64),
	}
	for _, n := range doc.Nodes {
		if n.Tag != scopeTag {
			continue
		}
		ix.scopes = append(ix.scopes, n)
		counts := make(map[string]int)
		collect(n, counts)
		for w, tf := range counts {
			ix.postings[w] = append(ix.postings[w], Entry{Node: n, TF: tf})
			m := ix.direct[w]
			if m == nil {
				m = make(map[int]int)
				ix.direct[w] = m
			}
			m[int(n.Ord)] = tf
		}
	}
	nScopes := float64(len(ix.scopes))
	for w, list := range ix.postings {
		sort.Slice(list, func(i, j int) bool {
			if list[i].TF != list[j].TF {
				return list[i].TF > list[j].TF
			}
			return list[i].Node.Ord < list[j].Node.Ord
		})
		ix.postings[w] = list
		ix.idf[w] = math.Log(1 + nScopes/float64(len(list)))
	}
	return ix
}

func collect(n *xmltree.Node, counts map[string]int) {
	for _, w := range Tokenize(n.Value) {
		counts[w]++
	}
	for _, c := range n.Children {
		collect(c, counts)
	}
}

// Scopes returns the number of indexed scope elements.
func (ix *Index) Scopes() int { return len(ix.scopes) }

// IDF returns the word's inverse document frequency over scope elements
// (0 for words absent from the index).
func (ix *Index) IDF(word string) float64 { return ix.idf[word] }

// Postings returns the word's postings, sorted by descending tf.
func (ix *Index) Postings(word string) []Entry { return ix.postings[word] }

// TF performs random access: the word's frequency within the scope
// element with the given preorder ordinal.
func (ix *Index) TF(word string, ord int) int { return ix.direct[word][ord] }

// Answer is one ranked keyword-search result.
type Answer struct {
	Node  *xmltree.Node
	Score float64
}

// Stats counts the list accesses an algorithm performed.
type Stats struct {
	SortedAccesses int
	RandomAccesses int
}

// score aggregates Σ idf(w)·tf(w, node).
func (ix *Index) score(ord int, words []string) float64 {
	total := 0.0
	for _, w := range words {
		total += ix.idf[w] * float64(ix.TF(w, ord))
	}
	return total
}

// TopKScan is the brute-force baseline: score every scope element.
func (ix *Index) TopKScan(query string, k int) []Answer {
	words := dedup(Tokenize(query))
	answers := make([]Answer, 0, len(ix.scopes))
	for _, n := range ix.scopes {
		if s := ix.score(int(n.Ord), words); s > 0 {
			answers = append(answers, Answer{Node: n, Score: s})
		}
	}
	sortAnswers(answers)
	return trim(answers, k)
}

// TopKTA runs Fagin's threshold algorithm: round-robin sorted access over
// the query words' postings, random access to complete each newly seen
// candidate, terminating when k candidates score at least the threshold
// Σ idf(w)·tf_w(current depth). A query that tokenizes to nothing or a
// non-positive k is a validation error (ErrBadQuery), distinguishing
// "you asked a malformed question" from a genuinely empty result.
func (ix *Index) TopKTA(query string, k int) ([]Answer, Stats, error) {
	words := dedup(Tokenize(query))
	var st Stats
	if len(words) == 0 {
		return nil, st, fmt.Errorf("%w: no searchable words in %q", ErrBadQuery, query)
	}
	if k < 1 {
		return nil, st, fmt.Errorf("%w: k must be ≥ 1, got %d", ErrBadQuery, k)
	}
	lists := make([][]Entry, len(words))
	for i, w := range words {
		lists[i] = ix.postings[w]
	}
	seen := make(map[int]float64)
	var scoreBuf []float64 // reused across depths by the termination test
	depth := 0
	for {
		progressed := false
		for i, w := range words {
			if depth >= len(lists[i]) {
				continue
			}
			progressed = true
			st.SortedAccesses++
			e := lists[i][depth]
			if _, ok := seen[int(e.Node.Ord)]; !ok {
				// Complete the candidate by random access on the other
				// words.
				total := 0.0
				for j, w2 := range words {
					if j == i {
						total += ix.idf[w] * float64(e.TF)
						continue
					}
					st.RandomAccesses++
					total += ix.idf[w2] * float64(ix.TF(w2, int(e.Node.Ord)))
				}
				seen[int(e.Node.Ord)] = total
			}
		}
		if !progressed {
			break
		}
		// Threshold: best score an unseen candidate could still attain.
		threshold := 0.0
		for i, w := range words {
			d := depth
			if d >= len(lists[i]) {
				continue
			}
			threshold += ix.idf[w] * float64(lists[i][d].TF)
		}
		var done bool
		done, scoreBuf = kthAtLeast(seen, k, threshold, scoreBuf)
		if done {
			break
		}
		depth++
	}
	return ix.finalize(seen, k), st, nil
}

// TopKNRA runs the no-random-access algorithm: candidates carry
// [lower, upper] bounds refined by sorted access; termination when the
// k-th lower bound is at least every other candidate's upper bound and
// the unseen threshold.
func (ix *Index) TopKNRA(query string, k int) ([]Answer, Stats) {
	words := dedup(Tokenize(query))
	var st Stats
	lists := make([][]Entry, len(words))
	for i, w := range words {
		lists[i] = ix.postings[w]
	}
	type bounds struct {
		lower float64
		seen  []bool
	}
	cands := make(map[int]*bounds)
	lastTF := make([]float64, len(words)) // tf at current depth per list
	var lowers []float64                  // reused across depths
	depth := 0
	for {
		progressed := false
		for i, w := range words {
			if depth >= len(lists[i]) {
				lastTF[i] = 0
				continue
			}
			progressed = true
			st.SortedAccesses++
			e := lists[i][depth]
			lastTF[i] = float64(e.TF)
			b := cands[int(e.Node.Ord)]
			if b == nil {
				b = &bounds{seen: make([]bool, len(words))}
				cands[int(e.Node.Ord)] = b
			}
			b.lower += ix.idf[w] * float64(e.TF)
			b.seen[i] = true
		}
		if !progressed {
			break
		}
		// Upper bound per candidate: lower + Σ over unseen words of
		// idf·(tf at current depth). Unseen-candidate threshold: Σ over
		// all words.
		unseenMax := 0.0
		for i, w := range words {
			unseenMax += ix.idf[w] * lastTF[i]
		}
		lowers = lowers[:0]
		for _, b := range cands {
			lowers = append(lowers, b.lower)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(lowers)))
		if len(lowers) >= k {
			kth := lowers[k-1]
			done := kth >= unseenMax
			if done {
				for _, b := range cands {
					upper := b.lower
					for i, w := range words {
						if !b.seen[i] {
							upper += ix.idf[w] * lastTF[i]
						}
					}
					if b.lower < kth && upper > kth {
						done = false
						break
					}
				}
			}
			if done {
				break
			}
		}
		depth++
	}
	// NRA's lower bounds equal final scores once every list is fully
	// consumed or the candidate was seen in all lists; completing with
	// random access here would violate NRA, so finalize with the exact
	// scores for result fidelity (the access counts above still reflect
	// NRA's early stop).
	final := make(map[int]float64, len(cands))
	for ord := range cands {
		final[ord] = ix.score(ord, words)
	}
	return ix.finalize(final, k), st
}

func (ix *Index) finalize(scores map[int]float64, k int) []Answer {
	byOrd := make(map[int]*xmltree.Node, len(ix.scopes))
	for _, n := range ix.scopes {
		byOrd[int(n.Ord)] = n
	}
	answers := make([]Answer, 0, len(scores))
	for ord, s := range scores {
		if s > 0 {
			answers = append(answers, Answer{Node: byOrd[ord], Score: s})
		}
	}
	sortAnswers(answers)
	return trim(answers, k)
}

// sortAnswers orders answers best first. The score comparison is
// deliberately exact: equal scores tie-break on the node ordinal so
// TA/NRA/scan return identical rankings.
// +whirllint:exactscore
func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score > answers[j].Score
		}
		return answers[i].Node.Ord < answers[j].Node.Ord
	})
}

func trim(answers []Answer, k int) []Answer {
	if len(answers) > k {
		return answers[:k]
	}
	return answers
}

// taEps absorbs floating-point noise in TA's termination test, the
// same way pruneEps does for the engine's pruning bound
// (internal/core/run.go): idf·tf sums accumulate in different orders
// on the sorted- and random-access paths, so a raw >= could keep
// scanning one depth past the true stopping point — or stop one early.
const taEps = 1e-12

// kthAtLeast reports whether the k-th best seen score reaches the
// threshold. buf is a scratch slice reused across calls (TA invokes this
// once per depth); the possibly-regrown buffer is returned for the next
// call.
func kthAtLeast(seen map[int]float64, k int, threshold float64, buf []float64) (bool, []float64) {
	if len(seen) < k {
		return false, buf
	}
	buf = buf[:0]
	for _, s := range seen {
		buf = append(buf, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(buf)))
	return buf[k-1] >= threshold-taEps, buf
}

func dedup(words []string) []string {
	seen := make(map[string]bool, len(words))
	out := words[:0]
	for _, w := range words {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
