// Package hotalloc is golden testdata for the hotalloc analyzer: the
// annotated hot-path roots below reach a variety of allocating
// constructs, each marked with a want expectation; cold functions and
// justified escapes must stay silent.
package hotalloc

import (
	"fmt"
	"sort"
	"strconv"
)

type item struct {
	id    int
	score float64
}

type queue struct {
	items []item
	less  func(a, b item) bool
}

// push is a hot-path root: the steady-state serving loop calls it per
// match.
// +whirllint:hotpath
func (q *queue) push(it item) {
	q.items = append(q.items, it) // receiver-owned scratch: fine
}

// Shape 1: make on the hot path.
// +whirllint:hotpath
func (q *queue) snapshot() []item {
	out := make([]item, len(q.items)) // want `hot path \(\+whirllint:hotpath root hotalloc\.\(queue\)\.snapshot\): make allocates`
	copy(out, q.items)
	return out
}

// Shape 2: &composite literal escaping, reached transitively — the
// root itself is clean, the helper it calls is not.
// +whirllint:hotpath
func (q *queue) pushBoxed(id int) {
	q.pushItem(newItem(id))
}

func (q *queue) pushItem(p *item) { q.items = append(q.items, *p) }

func newItem(id int) *item {
	return &item{id: id} // want `hot path \(\+whirllint:hotpath root hotalloc\.\(queue\)\.pushBoxed\): &composite literal escapes to the heap`
}

// Shape 3: slice literal plus append into a fresh local (not
// caller-owned scratch).
// +whirllint:hotpath
func (q *queue) evictBatch() []int {
	ids := []int{} // want `hot path .*: slice literal allocates`
	for _, it := range q.items {
		ids = append(ids, it.id)
	}
	return ids
}

// evictInto is the sanctioned shape of evictBatch: the caller owns the
// buffer, append reuses its capacity.
// +whirllint:hotpath
func (q *queue) evictInto(dst []int) []int {
	dst = dst[:0]
	for _, it := range q.items {
		dst = append(dst, it.id)
	}
	return dst
}

type sink interface{ consume(v any) }

// Shape 4: interface boxing at a call site — the exact bug class the
// de-boxed matchHeap fixed.
// +whirllint:hotpath
func drain(s sink, q *queue) {
	for _, it := range q.items {
		s.consume(it) // want `hot path .*: interface boxing of .*item argument allocates`
	}
}

// drainPtr stores a pointer in the interface word: no allocation.
// +whirllint:hotpath
func drainPtr(s sink, q *queue) {
	for i := range q.items {
		s.consume(&q.items[i])
	}
}

// Shape 5: a closure capturing locals allocates the closure object.
// +whirllint:hotpath
func (q *queue) sortKey(base int) {
	q.less = func(a, b item) bool { // want `hot path .*: closure captures base, allocating a closure object`
		return a.id+base < b.id+base
	}
}

// Shape 6: fmt on the hot path.
// +whirllint:hotpath
func describe(it item) string {
	return fmt.Sprintf("item-%d", it.id) // want `hot path .*: call to fmt\.Sprintf allocates`
}

// Shape 6b: a standard-library allocation that no known-allocator list
// names — strconv.ParseFloat builds a *NumError for text that is not a
// number. Only strconv's own fact, which go vet carries over from
// vetting strconv, exposes it (PR 9's hot-path fix in
// index.ValueTest.Matches).
// +whirllint:hotpath
func numeric(text string) bool {
	_, err := strconv.ParseFloat(text, 64) // want `hot path .*: call to strconv\.ParseFloat allocates`
	return err == nil
}

// Shape 7: dispatch through a function-valued field reaches whatever
// the package stores there.
// +whirllint:hotpath
func (q *queue) compare(a, b item) bool {
	if q.less != nil {
		return q.less(a, b)
	}
	return a.id < b.id
}

func init() {
	q := &queue{}
	q.less = expensiveLess
	_ = q
}

func expensiveLess(a, b item) bool {
	pair := make([]item, 0, 2) // want `hot path \(\+whirllint:hotpath root hotalloc\.\(queue\)\.compare\): make allocates`
	pair = append(pair, a, b)
	return pair[0].score < pair[1].score
}

// search hands its comparator straight to sort.Search: the callee's
// parameter does not escape, so the closure stays on the stack — clean
// even though it captures.
// +whirllint:hotpath
func (q *queue) search(id int) int {
	return sort.Search(len(q.items), func(i int) bool {
		return q.items[i].id >= id
	})
}

// refill is reachable from push? No — it is cold: allocations here are
// fine.
func (q *queue) refill() {
	q.items = make([]item, 0, 256)
	q.less = nil
}

// grow is reachable from a root but justified: amortized slab refill.
// +whirllint:hotpath
func (q *queue) offer(it item) {
	if len(q.items) == cap(q.items) {
		q.grow()
	}
	q.push(it)
}

// grow doubles the backing array.
// +whirllint:allocok amortized: one refill per capacity doubling
func (q *queue) grow() {
	next := make([]item, len(q.items), 2*cap(q.items)+1)
	copy(next, q.items)
	q.items = next
}

// shrink has the annotation but no justification: that is reported at
// the declaration even though shrink is cold.
// +whirllint:allocok
func (q *queue) shrink() { // want `\+whirllint:allocok on hotalloc\.\(queue\)\.shrink needs a justification`
	q.items = append([]item(nil), q.items...)
}
