package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// snapshotShards is the shard count the full-build case partitions for
// — the same 8-way layout the rest of BENCH_core.json exercises.
const snapshotShards = 8

// snapshotProbeTag is the tag the first-query case probes for.
const snapshotProbeTag = "item"

// snapshotCases measures the cold-start paths the mmap snapshot
// collapses, on the same pinned corpus as the rest of BENCH_core.json:
//
//	full-build           parse the XML, build the postings index and
//	                     synopsis, partition 8 ways —
//	                     what a boot without a snapshot pays every time
//	snapshot-write       build the v2 snapshot bytes for that same state
//	                     and fsync-rename them into place (a one-time cost)
//	snapshot-open        open the snapshot: mmap, CRC-32C over the body,
//	                     full structural validation — the per-process
//	                     boot cost; postings serve straight from pages
//	snapshot-first-query open plus the lazy node-slab materialization
//	                     and one structural probe — the one-time cost
//	                     the first query adds on top of open
//
// Each case's Speedup is full-build wall over its own wall, so the
// snapshot-open row carries the cold-start win the benchcheck
// -min-snapshot-speedup gate asserts; the first-query row keeps the
// deferred materialization visible rather than hidden in open.
func snapshotCases(out io.Writer, env *Env, rounds int) ([]benchCase, error) {
	var xmlBuf bytes.Buffer
	if err := env.Doc.Serialize(&xmlBuf); err != nil {
		return nil, err
	}
	xmlBytes := xmlBuf.Bytes()

	best := func(f func() error) (time.Duration, error) {
		var b time.Duration
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(start); b == 0 || d < b {
				b = d
			}
		}
		return b, nil
	}

	buildWall, err := best(func() error {
		doc, err := xmltree.Parse(bytes.NewReader(xmlBytes))
		if err != nil {
			return err
		}
		ix := index.Build(doc)
		synopsis.Build(doc)
		_, err = shard.Partition(doc, ix, snapshotShards)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: full build: %w", err)
	}

	// The snapshot carries the state full-build derives; the partition
	// is not stored (a snapshot-backed boot recomputes it in
	// milliseconds).
	snap := &store.Snapshot{Doc: env.Doc, Synopsis: synopsis.Build(env.Doc).Flatten()}

	tmp, err := os.CreateTemp("", "whirlbench-*.wpxs")
	if err != nil {
		return nil, err
	}
	path := tmp.Name()
	tmp.Close()
	defer os.Remove(path)

	writeWall, err := best(func() error { return store.SaveSnapshot(path, snap) })
	if err != nil {
		return nil, fmt.Errorf("bench: snapshot write: %w", err)
	}
	var snapBytes int64
	if fi, err := os.Stat(path); err == nil {
		snapBytes = fi.Size()
	}

	openWall, err := best(func() error {
		r, err := store.OpenSnapshot(path)
		if err != nil {
			return err
		}
		// Open validates everything (header, CRC, structure) but defers
		// the node-slab build; the first-query case below measures that
		// deferred cost so it stays visible.
		return r.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("bench: snapshot open: %w", err)
	}

	firstWall, err := best(func() error {
		r, err := store.OpenSnapshot(path)
		if err != nil {
			return err
		}
		doc := r.Document() // one-time lazy materialization
		if len(doc.Nodes) != len(env.Doc.Nodes) {
			r.Close()
			return fmt.Errorf("bench: snapshot holds %d nodes, corpus has %d", len(doc.Nodes), len(env.Doc.Nodes))
		}
		if got := len(r.AppendCandidates(nil, doc.Roots[0], dewey.Descendant, snapshotProbeTag, index.ValueEq(""))); got == 0 {
			r.Close()
			return fmt.Errorf("bench: snapshot probe found no %s nodes", snapshotProbeTag)
		}
		return r.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("bench: snapshot first query: %w", err)
	}

	speedup := func(w time.Duration) float64 { return float64(buildWall) / float64(w) }
	cases := []benchCase{
		{Name: "full-build", Shards: snapshotShards, NsPerOp: buildWall.Nanoseconds(), Speedup: 1},
		{Name: "snapshot-write", Shards: snapshotShards, NsPerOp: writeWall.Nanoseconds(), Speedup: speedup(writeWall)},
		{Name: "snapshot-open", Shards: snapshotShards, NsPerOp: openWall.Nanoseconds(), Speedup: speedup(openWall)},
		{Name: "snapshot-first-query", Shards: snapshotShards, NsPerOp: firstWall.Nanoseconds(), Speedup: speedup(firstWall)},
	}
	fmt.Fprintf(out, "bench: %-20s %12d ns/op  (parse+index+synopsis+partition)\n", "full-build", buildWall.Nanoseconds())
	fmt.Fprintf(out, "bench: %-20s %12d ns/op  %.2fx  (%d bytes)\n", "snapshot-write", writeWall.Nanoseconds(),
		speedup(writeWall), snapBytes)
	fmt.Fprintf(out, "bench: %-20s %12d ns/op  %.2fx  cold-start win (mmap+checksum+validate)\n", "snapshot-open",
		openWall.Nanoseconds(), speedup(openWall))
	fmt.Fprintf(out, "bench: %-20s %12d ns/op  %.2fx  open + lazy node slab + one probe\n", "snapshot-first-query",
		firstWall.Nanoseconds(), speedup(firstWall))
	return cases, nil
}
