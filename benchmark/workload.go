package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	whirlpool "repro"
	"repro/internal/bench"
	"repro/internal/index"
)

// Workload names are normative: later issues cite them.
const (
	steadyMix   = "steady_mix"
	shardedMix  = "sharded_mix"
	snapshotMix = "snapshot_mix"
	coldShapes  = "cold_shapes"
)

// workloadWhy is the one-line rationale BENCHMARK.json carries per
// workload, in report order.
var workloadWhy = []struct{ name, why string }{
	{steadyMix, "18 cached classes on one build-backed engine: core and index do nearly all the work"},
	{shardedMix, "same traffic through 8 shards and the stealing pool: engine work shrinks, HTTP/render/encode share grows"},
	{snapshotMix, "same traffic served from the mmap snapshot: isolates the access path, cold start and resident memory"},
	{coldShapes, "768 distinct selective shapes cycled through 256-entry caches: every request parses, plans and builds an engine"},
}

// mixKs and the two modes span the 18-class mix with bench.Queries().
var mixKs = []int{3, 15, 75}

// coldK is the k of every cold_shapes request.
const coldK = 10

// coldCounts fixes how many shapes each cold_shapes template
// contributes, so the template mix — and with it the work per request —
// is the same for every seed; the seed only picks which constants.
// They sum to 768 = 3× the daemon's default cache capacity.
var coldCounts = []int{24, 312, 120, 312}

// class is one distinct request of a workload: a query shape, k and
// mode, with its pre-marshalled body and, once verified against the
// naive evaluator, the score vector every response must carry.
type class struct {
	name  string
	query string
	k     int
	exact bool
	body  []byte
	// group indexes the requests whose latencies are comparable: a mix
	// class is its own group; a cold_shapes shape shares one with the
	// other instances of its template and mode, which differ only in
	// constants.
	group int

	// verified is set when want/wantRoots hold the naive evaluator's
	// answer for this class.
	verified  bool
	want      []float64
	wantRoots map[string]bool // Dewey IDs scoring strictly above the k-th score
}

// workload is a traffic definition: what the daemon is booted with and
// the seeded request sequence sent to it.
type workload struct {
	name string
	// shards and snapshot select the daemon's flags.
	shards   int
	snapshot bool
	// warmup sends every class once (and verifies it) before timing;
	// without it the window starts on cold caches.
	warmup bool
	// block is the granularity the timed window ends on, so every class
	// of a mix is sent equally often whatever the window length.
	block   int
	classes []class
	groups  int // number of distinct class.group values
	// order is the request sequence as class indices; the window walks
	// it cyclically.
	order []int
	// verifyEvery selects the classes checked against the naive
	// evaluator: every n-th.
	verifyEvery int
}

// queryBody marshals one POST /query payload the way a client would.
func queryBody(query string, k int, exact bool) []byte {
	b, err := json.Marshal(struct {
		Query string `json:"query"`
		K     int    `json:"k"`
		Exact bool   `json:"exact"`
	}{query, k, exact})
	if err != nil {
		panic(err) // a struct of string/int/bool always marshals
	}
	return b
}

func modeName(exact bool) string {
	if exact {
		return "exact"
	}
	return "relaxed"
}

// mixClasses is the 18-class mix: Q1–Q3 × k∈{3,15,75} × {exact, relaxed}.
func mixClasses() []class {
	var out []class
	for _, q := range bench.Queries() {
		for _, k := range mixKs {
			for _, exact := range []bool{true, false} {
				out = append(out, class{
					name:  fmt.Sprintf("%s.k%d.%s", q.Name, k, modeName(exact)),
					query: q.XPath,
					k:     k,
					exact: exact,
					body:  queryBody(q.XPath, k, exact),
				})
			}
		}
	}
	return out
}

// mixPasses is how many seeded permutations of the mix are laid out; at
// 18 requests each this outlasts any window the contract allows (60 s)
// on a host several times faster than the sizing one, and the window
// wraps around if it is ever exhausted.
const mixPasses = 4096

// newMix builds one of the three mix workloads for a seed.
func newMix(name string, seed int64) *workload {
	w := &workload{name: name, warmup: true, classes: mixClasses(), verifyEvery: 1}
	w.block, w.groups = len(w.classes), len(w.classes)
	for i := range w.classes {
		w.classes[i].group = i
	}
	switch name {
	case shardedMix:
		w.shards = 8
	case snapshotMix:
		w.snapshot = true
	}
	rng := rand.New(rand.NewSource(seed))
	w.order = make([]int, 0, mixPasses*len(w.classes))
	for p := 0; p < mixPasses; p++ {
		w.order = append(w.order, rng.Perm(len(w.classes))...)
	}
	return w
}

// distinctValues returns the sorted distinct text values of a tag.
func distinctValues(ix index.Source, tag string) []string {
	seen := make(map[string]bool)
	for _, n := range ix.Nodes(tag) {
		if n.Value != "" {
			seen[n.Value] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// coldTemplates enumerates every instance of the four value-predicate
// templates over the constants harvested from the document.
func coldTemplates(ix index.Source) [][]class {
	locs := distinctValues(ix, "location")
	qtys := distinctValues(ix, "quantity")
	pays := distinctValues(ix, "payment")
	kws := distinctValues(ix, "keyword")
	froms := distinctValues(ix, "from")
	tos := distinctValues(ix, "to")

	var locQty, locPayKw, qtyMailKw, fromTo []string
	for _, l := range locs {
		for _, q := range qtys {
			locQty = append(locQty, fmt.Sprintf("//item[./location = '%s' and ./quantity = '%s']", l, q))
		}
		for _, p := range pays {
			for _, k := range kws {
				locPayKw = append(locPayKw, fmt.Sprintf("//item[./location = '%s' and ./payment = '%s' and .//keyword = '%s']", l, p, k))
			}
		}
	}
	for _, q := range qtys {
		for _, k := range kws {
			qtyMailKw = append(qtyMailKw, fmt.Sprintf("//item[./quantity = '%s' and ./mailbox/mail/text/keyword = '%s']", q, k))
		}
	}
	for _, f := range froms {
		for _, t := range tos {
			fromTo = append(fromTo, fmt.Sprintf("//mail[./from = '%s' and ./to = '%s']", f, t))
		}
	}
	names := []string{"loc_qty", "loc_pay_kw", "qty_mailkw", "from_to"}
	out := make([][]class, len(names))
	for ti, queries := range [][]string{locQty, locPayKw, qtyMailKw, fromTo} {
		for i, q := range queries {
			out[ti] = append(out[ti], class{name: fmt.Sprintf("%s.%04d", names[ti], i), query: q, k: coldK, group: 2 * ti})
		}
	}
	return out
}

// newColdShapes builds cold_shapes: the seed picks coldCounts[t]
// instances of each template and the order they are cycled in; shapes
// alternate exact/relaxed along that order. Every shape must parse and
// no two may share a canonical key, or a request could hit a cache.
func newColdShapes(ix index.Source, seed int64) (*workload, error) {
	w := &workload{name: coldShapes, block: 1, verifyEvery: 16, groups: 2 * len(coldCounts)}
	rng := rand.New(rand.NewSource(seed))
	for ti, pool := range coldTemplates(ix) {
		if len(pool) < coldCounts[ti] {
			return nil, fmt.Errorf("cold_shapes: template %d has %d instances over this document, need %d", ti, len(pool), coldCounts[ti])
		}
		for _, i := range rng.Perm(len(pool))[:coldCounts[ti]] {
			w.classes = append(w.classes, pool[i])
		}
	}
	rng.Shuffle(len(w.classes), func(i, j int) { w.classes[i], w.classes[j] = w.classes[j], w.classes[i] })
	keys := make(map[string]string, len(w.classes))
	w.order = make([]int, len(w.classes))
	for i := range w.classes {
		c := &w.classes[i]
		if c.exact = i%2 == 0; !c.exact {
			c.group++ // template ti: exact 2·ti, relaxed 2·ti+1
		}
		c.body = queryBody(c.query, c.k, c.exact)
		q, err := whirlpool.ParseQuery(c.query)
		if err != nil {
			return nil, fmt.Errorf("cold_shapes: %s: %w", c.query, err)
		}
		key := whirlpool.CanonicalQueryKey(q)
		if prev, dup := keys[key]; dup {
			return nil, fmt.Errorf("cold_shapes: %s and %s share canonical key %s", prev, c.query, key)
		}
		keys[key] = c.query
		w.order[i] = i
	}
	return w, nil
}

// newWorkload builds the named workload for a seed over the corpus.
func newWorkload(name string, ix index.Source, seed int64) (*workload, error) {
	switch name {
	case steadyMix, shardedMix, snapshotMix:
		return newMix(name, seed), nil
	case coldShapes:
		return newColdShapes(ix, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// classAt returns the class index of the i-th request of the sequence.
func (w *workload) classAt(i int) int { return w.order[i%len(w.order)] }
