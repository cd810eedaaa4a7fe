// Command whirlload (go run ./benchmark) is the repository's serving
// benchmark: it builds cmd/whirlpoold, boots it as a child process,
// drives it closed-loop over HTTP, checks every answer against the
// naive evaluator and prints every metric of BENCHMARK.json by name.
//
//	go run ./benchmark                       # all four workloads, both modes
//	go run ./benchmark -repeat 3             # … three times, with spreads
//	go run ./benchmark -workload steady_mix -seed 7 -seconds 15 -trace 0
//
// With -workload the last line of standard output is the result object
// the acceptance driver reads. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName  = flag.String("workload", "", "run one workload and end with the driver's result line (default: all workloads, both modes)")
		seed          = flag.Int64("seed", 1, "drives the request sequence and the choice of cold_shapes constants")
		seconds       = flag.Int("seconds", runSeconds, "how long one window measures")
		trace         = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
		repeat        = flag.Int("repeat", 1, "without -workload: run the whole set this many times and report medians and spreads")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the harness defines it and exit")
		samples       = flag.String("samples", "", "append every request of the measured windows to this file (for noise studies)")
	)
	flag.Parse()
	if *printManifest {
		out, err := json.MarshalIndent(newManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", out)
		return
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds ≥ 1, -repeat ≥ 1 and -trace 0 or 1"))
	}

	// The daemon is a child of this context: SIGINT/SIGTERM cancel it,
	// which kills the child, and every path below waits for it.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *repeat, *samples)
	cancel()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whirlload:", err)
	os.Exit(2)
}

// run executes the requested runs and returns the process exit code:
// 0 when every answer was correct (and, under -repeat, every spread
// within its bound), 1 otherwise, 2 when the harness itself failed.
func run(ctx context.Context, workloadName string, seed int64, dur time.Duration, traced bool, repeat int, samplesPath string) int {
	e, err := newEnv(ctx, corpusBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whirlload:", err)
		return 2
	}
	defer e.close()
	e.samplesPath = samplesPath
	printHost(seed)

	if workloadName != "" {
		res, err := e.runOne(workloadName, seed, dur, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whirlload:", err)
			return 2
		}
		res.print(os.Stdout)
		line, err := res.resultLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "whirlload:", err)
			return 2
		}
		fmt.Printf("%s\n", line)
		if !res.correct() {
			return 1
		}
		return 0
	}

	code := 0
	var sets [][]*result
	for r := 0; r < repeat; r++ {
		var set []*result
		for _, w := range workloadWhy {
			for _, tr := range []bool{false, true} {
				res, err := e.runOne(w.name, seed, dur, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, "whirlload:", err)
					return 2
				}
				res.print(os.Stdout)
				if !res.correct() {
					code = 1
				}
				set = append(set, res)
			}
		}
		sets = append(sets, set)
	}
	if repeat > 1 && !printSpreads(sets) {
		code = 1
	}
	return code
}

// runOne builds the workload for the seed, verifies its classes against
// the naive evaluator and measures it in the requested mode.
func (e *env) runOne(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, e.corpus.ix, seed)
	if err != nil {
		return nil, err
	}
	if err := e.corpus.verifyClasses(w); err != nil {
		return nil, err
	}
	if traced {
		return e.runTraced(w, dur)
	}
	return e.runEndToEnd(w, dur)
}

// printHost records what a reader needs to judge the numbers' noise.
func printHost(seed int64) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d loadavg=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, loadavg())
}

// printSpreads prints, per workload and metric, the median over the
// repeated sets and the relative spread, and reports whether every
// end-to-end spread stayed within its bound.
func printSpreads(sets [][]*result) bool {
	ok := true
	fmt.Printf("== medians and spreads over %d sets\n", len(sets))
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	for i, first := range sets[0] {
		for _, d := range first.defs() {
			vals := make([]float64, len(sets))
			for s := range sets {
				vals[s] = sets[s][i].metrics[d.name]
			}
			spread := relSpread(vals)
			flag := ""
			if b, gated := bounds[d.name]; gated && !first.traced && spread > b {
				flag = fmt.Sprintf("  SPREAD EXCEEDS BOUND %.0f%%", 100*b)
				ok = false
			}
			fmt.Printf("%-13s %-44s median %16.4f %-6s spread %6.2f%%%s\n",
				first.workload, d.name, median(vals), d.unit, 100*spread, flag)
		}
	}
	return ok
}
