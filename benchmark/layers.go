package main

import (
	"bytes"
	"os"
	"runtime"
	"time"

	whirlpool "repro"
	"repro/internal/bench"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// layerStats are the per-layer figures that depend on the corpus only,
// not on the workload: what each set-up stage and each access path
// costs when called directly.
type layerStats struct {
	parseMS, indexBuildMS, synopsisBuildMS, splitMS float64

	indexProbe, storeProbe, shardProbe probeStats

	snapshotWriteMS, snapshotBytesPerDocByte float64
	openMS, firstQueryMS                     float64

	workRatio float64
}

// probeStats is one access path measured over the fixed probe set.
type probeStats struct {
	ns, candidates, allocs float64 // per probe
}

// probeAnchors is how many item anchors the probe set uses.
const probeAnchors = 2000

// probePair is one (axis, tag) a server plan of Q1–Q3 probes with.
type probePair struct {
	axis dewey.Axis
	tag  string
}

// probePairs collects the distinct (axis, tag) pairs of Q1–Q3's server
// plans, exact and relaxed, in first-seen order.
func probePairs() ([]probePair, error) {
	var out []probePair
	seen := make(map[probePair]bool)
	for _, wq := range bench.Queries() {
		q, err := pattern.Parse(wq.XPath)
		if err != nil {
			return nil, err
		}
		for _, r := range []relax.Relaxation{relax.None, relax.All} {
			plans := relax.BuildPlans(q, r)
			for id := 1; id < q.Size(); id++ {
				p := probePair{plans[id].ProbeAxis(), q.Nodes[id].Tag}
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	return out, nil
}

// medianOf3 times fn three times and returns the median in
// milliseconds.
func medianOf3(fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// measureProbes runs AppendCandidates over the first probeAnchors item
// anchors of src × pairs, three rounds, and reports the median round.
func measureProbes(src index.Source, pairs []probePair) probeStats {
	anchors := src.Nodes("item")
	if len(anchors) > probeAnchors {
		anchors = anchors[:probeAnchors]
	}
	probes := float64(len(anchors) * len(pairs))
	if probes == 0 {
		return probeStats{}
	}
	var dst []*xmltree.Node
	var ns, allocs []float64
	var ms0, ms1 runtime.MemStats
	candidates := 0
	for round := 0; round < 3; round++ {
		candidates = 0
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, a := range anchors {
			for _, p := range pairs {
				dst = src.AppendCandidates(dst[:0], a, p.axis, p.tag, index.ValueTest{})
				candidates += len(dst)
			}
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		ns = append(ns, float64(took)/probes)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/probes)
	}
	return probeStats{ns: median(ns), candidates: float64(candidates) / probes, allocs: median(allocs)}
}

// layers measures the corpus-only per-layer figures once per
// invocation.
func (e *env) layers() (*layerStats, error) {
	if e.layerStats != nil {
		return e.layerStats, nil
	}
	c := e.corpus
	pairs, err := probePairs()
	if err != nil {
		return nil, err
	}
	ls := &layerStats{}
	if ls.parseMS, err = medianOf3(func() error {
		_, err := xmltree.Parse(bytes.NewReader(c.raw))
		return err
	}); err != nil {
		return nil, err
	}
	ls.indexBuildMS, _ = medianOf3(func() error { index.Build(c.doc); return nil })       // the closure cannot fail
	ls.synopsisBuildMS, _ = medianOf3(func() error { synopsis.Build(c.doc); return nil }) // the closure cannot fail
	ls.indexProbe = measureProbes(c.ix, pairs)

	var corpus *shard.Corpus
	if ls.splitMS, err = medianOf3(func() error {
		var err error
		corpus, err = shard.Split(c.doc, 8)
		return err
	}); err != nil {
		return nil, err
	}
	ls.shardProbe = measureProbes(corpus, pairs)

	snap, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	ls.snapshotWriteMS = float64(e.snapWrite) / 1e6
	info, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	ls.snapshotBytesPerDocByte = float64(info.Size()) / float64(len(c.raw))
	reader, err := store.OpenSnapshot(snap)
	if err != nil {
		return nil, err
	}
	ls.storeProbe = measureProbes(reader, pairs)
	if err := reader.Close(); err != nil {
		return nil, err
	}

	// Cold start through the public API: open, then open + the first
	// Q2/k=15/relaxed — the query that pays for the lazy node slab.
	q2, err := whirlpool.ParseQuery(bench.Q2.XPath)
	if err != nil {
		return nil, err
	}
	var opens, firsts []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		db, err := whirlpool.OpenSnapshot(snap)
		if err != nil {
			return nil, err
		}
		opened := time.Since(t0)
		if _, err := db.TopK(q2, whirlpool.Approximate(15)); err != nil {
			db.Close()
			return nil, err
		}
		first := time.Since(t0)
		if err := db.Close(); err != nil {
			return nil, err
		}
		opens = append(opens, float64(opened)/1e6)
		firsts = append(firsts, float64(first)/1e6)
	}
	ls.openMS, ls.firstQueryMS = median(opens), median(firsts)

	// ROADMAP 2a's artefact: matches a sharded Q2/k=15 creates over
	// what the single engine creates.
	single, err := c.db.TopK(q2, whirlpool.Approximate(15))
	if err != nil {
		return nil, err
	}
	sdb, err := c.db.Shard(8)
	if err != nil {
		return nil, err
	}
	sharded, err := sdb.TopK(q2, whirlpool.Approximate(15))
	if err != nil {
		return nil, err
	}
	if single.Stats.MatchesCreated > 0 {
		ls.workRatio = float64(sharded.Stats.MatchesCreated) / float64(single.Stats.MatchesCreated)
	}
	e.layerStats = ls
	return ls, nil
}
