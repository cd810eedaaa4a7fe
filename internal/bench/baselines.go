package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	whirlpool "repro"
	"repro/internal/core"
	"repro/internal/joins"
	"repro/internal/relax"
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

// DiskVsMemory compares running Q2 against the in-memory index and
// against the same database saved as a snapshot and opened from the file
// (postings served from the mapped WPXS columns) — the Section 6.3.3
// disk-residence ablation. The answers must agree; the table reports
// open and query times.
func DiskVsMemory(w io.Writer, c Config) error {
	c = c.withDefaults()
	env, err := NewEnv(c.Seed, c.bytesFor(Doc10MB), c.Norm)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "whirlbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.wpxs")
	mem := whirlpool.FromDocument(env.Doc)
	if err := mem.SaveSnapshot(path, whirlpool.SnapshotOptions{}); err != nil {
		return err
	}
	start := time.Now()
	disk, err := whirlpool.OpenSnapshot(path)
	if err != nil {
		return err
	}
	openTime := time.Since(start)
	defer disk.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "In-memory index vs store snapshot (Q2, k=%d, %d bytes XML, %d bytes snapshot, open %s)\n",
		c.K, env.Bytes, fi.Size(), ms(openTime))
	t := newTable(w, "source", "time", "server ops", "answers")
	opts := whirlpool.Options{K: c.K, Relax: relaxAll, Normalization: c.Norm}
	var answers []int
	for _, src := range []struct {
		name string
		db   *whirlpool.Database
	}{{"memory", mem}, {"snapshot", disk}} {
		res, err := src.db.TopK(env.Query(Q2), opts)
		if err != nil {
			return err
		}
		t.add(src.name, ms(res.Stats.Duration), fmt.Sprintf("%d", res.Stats.ServerOps), fmt.Sprintf("%d", len(res.Answers)))
		answers = append(answers, len(res.Answers))
	}
	t.flush()
	if answers[0] != answers[1] {
		return fmt.Errorf("bench: snapshot answers diverge: %d vs %d", answers[0], answers[1])
	}
	return nil
}
