// Command benchcheck asserts properties of a BENCH_core.json report
// (written by `whirlbench -bench-json` / `make bench`). CI uses it to
// gate on the hot path's allocation profile and on the planning and
// cold-start wins:
//
//	benchcheck -file BENCH_core.json -alloc-case single -max-alloc-ratio 0.2
//	benchcheck -file BENCH_core.json -min-hot-speedup 2
//	benchcheck -file BENCH_core.json -min-snapshot-speedup 25
//
// The cached-planning gate divides the cold planning case's ns/op
// (scorer and routing statistics computed from index scans, plan built
// from scratch) by the hot case's (plan served from the planner cache):
// a floor of 2 demands a cache hit cost at most half a cold plan. Both
// cases are written by whirlbench -bench-json with -bench-hot (the
// default).
//
// The allocation gate divides the pinned case's allocs/op (arena
// enabled) by its in-report baseline (the same run with reuse
// disabled); a ratio of 0.2 demands the memory-reuse layer eliminate at
// least 80% of hot-path allocations.
//
// Neither the report's steal counts nor its speedup columns are gated:
// a pinned run is a few hundred server ops, so whether a thief finds
// work is a scheduling lottery (stealing is held by the shard tests),
// and sharding is judged on whirlload's sharded_mix instead.
//
// benchcheck exits non-zero with a diagnostic when a named case is
// missing or a gate fails. A gate whose flag is left at zero is
// skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type benchCase struct {
	Name                string `json:"name"`
	NsPerOp             int64  `json:"ns_per_op"`
	AllocsPerOp         int64  `json:"allocs_per_op"`
	BaselineAllocsPerOp int64  `json:"baseline_allocs_per_op"`
}

type report struct {
	Cases []benchCase `json:"cases"`
}

func main() {
	var (
		file           = flag.String("file", "BENCH_core.json", "benchmark report to check")
		allocCase      = flag.String("alloc-case", "single", "case name for the allocation gate")
		maxAllocRatio  = flag.Float64("max-alloc-ratio", 0, "required allocs/op ÷ baseline allocs/op ceiling (0 skips)")
		hotCase        = flag.String("hot-case", "plan-hot", "case name for the cached-planning gate")
		coldCase       = flag.String("cold-case", "plan-cold", "baseline case name for the cached-planning gate")
		minHotSpeedup  = flag.Float64("min-hot-speedup", 0, "required cached-vs-cold planning speedup (0 skips the gate)")
		openCase       = flag.String("open-case", "snapshot-open", "case name for the snapshot cold-start gate")
		buildCase      = flag.String("build-case", "full-build", "baseline case name for the snapshot cold-start gate")
		minSnapSpeedup = flag.Float64("min-snapshot-speedup", 0, "required snapshot-open-vs-full-build speedup (0 skips the gate)")
	)
	flag.Parse()

	raw, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(fmt.Errorf("%s: %w", *file, err))
	}
	if *maxAllocRatio > 0 {
		checkAllocs(&rep, *file, *allocCase, *maxAllocRatio)
	}
	if *minHotSpeedup > 0 {
		checkPlanning(&rep, *file, *hotCase, *coldCase, *minHotSpeedup)
	}
	if *minSnapSpeedup > 0 {
		checkSnapshot(&rep, *file, *openCase, *buildCase, *minSnapSpeedup)
	}
}

// checkSnapshot gates the mmap snapshot's cold-start win: opening the
// snapshot must beat rebuilding the index/synopsis/layout state
// from XML by the required factor. Both cases are wall times over the
// same pinned corpus, so their ns/op ratio is the boot-time saving a
// daemon sees from -snapshot.
func checkSnapshot(rep *report, file, openName, buildName string, minSpeedup float64) {
	find := func(name string) *benchCase {
		for i := range rep.Cases {
			if rep.Cases[i].Name == name {
				return &rep.Cases[i]
			}
		}
		return nil
	}
	open, build := find(openName), find(buildName)
	if open == nil || build == nil {
		fatal(fmt.Errorf("%s: missing case %q or %q (regenerate the report with whirlbench -bench-json; the snapshot cases need -bench-snapshot)",
			file, openName, buildName))
	}
	if open.NsPerOp <= 0 || build.NsPerOp <= 0 {
		fatal(fmt.Errorf("%s: cases %q/%q carry no ns/op", file, openName, buildName))
	}
	speedup := float64(build.NsPerOp) / float64(open.NsPerOp)
	if speedup < minSpeedup {
		fatal(fmt.Errorf("%s: snapshot open %.2fx over full build < required %.2fx (%s %d ns/op vs %s %d ns/op) — the mmap path is not collapsing cold start",
			file, speedup, minSpeedup, openName, open.NsPerOp, buildName, build.NsPerOp))
	}
	fmt.Printf("benchcheck: snapshot open %.0fx over full build >= %.0fx (%s %d ns/op, %s %d ns/op)\n",
		speedup, minSpeedup, openName, open.NsPerOp, buildName, build.NsPerOp)
}

// checkPlanning gates the planner cache: a hit must beat compiling a
// plan from scratch by the required factor. Both cases measure the
// same work (plan resolution plus engine construction, no evaluation)
// on the same document, so their ns/op ratio is a pure cache win.
func checkPlanning(rep *report, file, hotName, coldName string, minSpeedup float64) {
	find := func(name string) *benchCase {
		for i := range rep.Cases {
			if rep.Cases[i].Name == name {
				return &rep.Cases[i]
			}
		}
		return nil
	}
	hot, cold := find(hotName), find(coldName)
	if hot == nil || cold == nil {
		fatal(fmt.Errorf("%s: missing case %q or %q (regenerate the report with whirlbench -bench-json; the planning cases need -bench-hot)",
			file, hotName, coldName))
	}
	if hot.NsPerOp <= 0 || cold.NsPerOp <= 0 {
		fatal(fmt.Errorf("%s: cases %q/%q carry no ns/op", file, hotName, coldName))
	}
	speedup := float64(cold.NsPerOp) / float64(hot.NsPerOp)
	if speedup < minSpeedup {
		fatal(fmt.Errorf("%s: cached planning %.2fx over cold < required %.2fx (%s %d ns/op vs %s %d ns/op) — the plan cache is not paying for itself",
			file, speedup, minSpeedup, hotName, hot.NsPerOp, coldName, cold.NsPerOp))
	}
	fmt.Printf("benchcheck: cached planning %.1fx over cold >= %.1fx (%s %d ns/op, %s %d ns/op)\n",
		speedup, minSpeedup, hotName, hot.NsPerOp, coldName, cold.NsPerOp)
}

func checkAllocs(rep *report, file, caseName string, maxRatio float64) {
	for _, c := range rep.Cases {
		if c.Name != caseName {
			continue
		}
		if c.BaselineAllocsPerOp <= 0 {
			fatal(fmt.Errorf("%s: case %s has no baseline_allocs_per_op (report predates the allocation gate; regenerate with whirlbench -bench-json)",
				file, c.Name))
		}
		ratio := float64(c.AllocsPerOp) / float64(c.BaselineAllocsPerOp)
		if ratio > maxRatio {
			fatal(fmt.Errorf("%s: case %s allocs/op ratio %.3f (%d of %d baseline) > allowed %.3f — the hot path regressed its allocation budget",
				file, c.Name, ratio, c.AllocsPerOp, c.BaselineAllocsPerOp, maxRatio))
		}
		fmt.Printf("benchcheck: %s allocs/op %d vs baseline %d (ratio %.3f <= %.3f, %.0f%% reduction)\n",
			c.Name, c.AllocsPerOp, c.BaselineAllocsPerOp, ratio, maxRatio, (1-ratio)*100)
		return
	}
	fatal(fmt.Errorf("%s: no case named %q", file, caseName))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
