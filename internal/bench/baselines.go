package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/joins"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/store"
)

// ExactBaseline compares exact top-k evaluation via the Whirlpool engine
// (score-pruned, adaptive) against the conventional structural-join plan
// (compute every exact match, then rank) for Q1–Q3. The join baseline is
// what the paper's Section 3 describes as the standard approach for
// exact answers; Whirlpool's advantage is pruning work that cannot reach
// the top k.
func ExactBaseline(w io.Writer, c Config) error {
	c = c.withDefaults()
	env, err := NewEnv(c.Seed, c.bytesFor(Doc10MB), c.Norm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Exact top-k: Whirlpool vs structural-join baseline (k=%d, %d bytes)\n", c.K, env.Bytes)
	t := newTable(w, "query", "whirlpool time", "whirlpool ops", "join time", "join pairs", "peak tuples")
	for _, wl := range Queries() {
		cfg := baseConfig(c, env, wl, core.WhirlpoolS)
		cfg.Relax = relax.None
		cfg.OpCost = 0
		start := time.Now()
		res := env.MustRun(wl, cfg)
		wpTime := time.Since(start)

		start = time.Now()
		answers, st := joins.TopK(env.Ix, env.Query(wl), env.Scorer(wl), c.K)
		joinTime := time.Since(start)
		if len(answers) != len(res.Answers) {
			return fmt.Errorf("bench: exact baselines disagree on %s: %d vs %d answers",
				wl.Name, len(answers), len(res.Answers))
		}
		t.add(wl.Name, ms(wpTime), fmt.Sprintf("%d", res.Stats.ServerOps),
			ms(joinTime), fmt.Sprintf("%d", st.JoinPairs), fmt.Sprintf("%d", st.Intermediate))
	}
	t.flush()
	return nil
}

// DiskVsMemory compares running the default workload against the
// in-memory index and against a store snapshot image (postings served
// from the flat WPXS arrays) — the Section 6.3.3 disk-residence
// ablation. The answers must agree; the table reports open and query
// times.
func DiskVsMemory(w io.Writer, c Config) error {
	c = c.withDefaults()
	env, err := NewEnv(c.Seed, c.bytesFor(Doc10MB), c.Norm)
	if err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := store.WriteSnapshot(&snap, &store.Snapshot{Doc: env.Doc}); err != nil {
		return err
	}
	start := time.Now()
	reader, err := store.ParseSnapshot(snap.Bytes())
	if err != nil {
		return err
	}
	openTime := time.Since(start)

	fmt.Fprintf(w, "In-memory index vs store snapshot (Q2, k=%d, %d bytes XML, %d bytes snapshot, open %s)\n",
		c.K, env.Bytes, snap.Len(), ms(openTime))
	t := newTable(w, "source", "time", "server ops", "answers")
	cfg := baseConfig(c, env, Q2, core.WhirlpoolS)
	cfg.OpCost = 0
	memRes := env.MustRun(Q2, cfg)
	t.add("memory", ms(memRes.Stats.Duration), fmt.Sprintf("%d", memRes.Stats.ServerOps), fmt.Sprintf("%d", len(memRes.Answers)))

	// Re-run against the snapshot-backed source; scorers are rebuilt
	// (into a fresh map) because node identities differ.
	diskEnv := &Env{Ix: reader, Bytes: env.Bytes, queries: env.queries, scorers: map[string]*score.TFIDF{}, norm: env.norm}
	for _, wl := range Queries() {
		diskEnv.scorers[wl.Name] = score.NewTFIDF(reader, diskEnv.queries[wl.Name], c.Norm)
	}
	cfg2 := baseConfig(c, diskEnv, Q2, core.WhirlpoolS)
	cfg2.OpCost = 0
	diskRes := diskEnv.MustRun(Q2, cfg2)
	t.add("snapshot", ms(diskRes.Stats.Duration), fmt.Sprintf("%d", diskRes.Stats.ServerOps), fmt.Sprintf("%d", len(diskRes.Answers)))
	t.flush()
	if len(memRes.Answers) != len(diskRes.Answers) {
		return fmt.Errorf("bench: snapshot answers diverge: %d vs %d", len(memRes.Answers), len(diskRes.Answers))
	}
	return nil
}
