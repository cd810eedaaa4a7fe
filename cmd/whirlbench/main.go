// Command whirlbench regenerates the tables and figures of the paper's
// evaluation section (Section 6). By default it runs every experiment at
// a reduced document scale; -full runs the paper's 1/10/50 MB documents
// with the paper's ~1.8 ms per-operation cost (slow).
//
// Usage:
//
//	whirlbench                 # all experiments, reduced scale
//	whirlbench -fig 6          # a single figure (3, 5–11)
//	whirlbench -table 2        # a single table
//	whirlbench -ablations      # queue-discipline and scoring ablations
//	whirlbench -full           # paper-scale parameters
//	whirlbench -scale 0.1 -k 15 -opcost 200us -seed 7
//	whirlbench -trace run.jsonl  # dump one run's engine events as JSONL
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "run a single figure (3, 5, 6, 7, 8, 9, 10, 11); 0 = all")
		tableNo   = flag.Int("table", 0, "run a single table (2); 0 = all")
		ablations = flag.Bool("ablations", false, "run only the queue/scoring ablations")
		full      = flag.Bool("full", false, "paper-scale documents (1/10/50 MB) and 1.8 ms op cost")
		scale     = flag.Float64("scale", 0, "document scale factor vs the paper's sizes (default 0.02)")
		k         = flag.Int("k", 0, "top-k (default 15)")
		seed      = flag.Int64("seed", 0, "generator seed (default 1)")
		opcost    = flag.Duration("opcost", 0, "synthetic per-operation cost (default 100µs)")
		orders    = flag.Int("orders", 0, "static permutations to sweep (default all 120)")
		trace     = flag.String("trace", "", "dump one representative run's engine events to FILE as JSONL and exit")
	)
	flag.Parse()

	cfg := bench.Config{
		Scale:        *scale,
		K:            *k,
		Seed:         *seed,
		OpCost:       *opcost,
		StaticOrders: *orders,
	}
	if *full {
		if cfg.Scale == 0 {
			cfg.Scale = 1
		}
		if cfg.OpCost == 0 {
			cfg.OpCost = 1800 * time.Microsecond
		}
	}

	var err error
	if *trace != "" {
		err = dumpTrace(os.Stdout, cfg, *trace)
	} else {
		err = run(os.Stdout, cfg, *fig, *tableNo, *ablations)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whirlbench:", err)
		os.Exit(1)
	}
}

// dumpTrace runs one representative evaluation with a trace collector
// and writes its events to path as JSONL.
func dumpTrace(out io.Writer, cfg bench.Config, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var sink obs.Collector
	runErr := bench.TraceRun(out, cfg, &sink)
	if err := sink.WriteJSONL(f); runErr == nil && err != nil {
		runErr = fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); runErr == nil && err != nil {
		runErr = err
	}
	if runErr == nil {
		fmt.Fprintf(out, "trace: events written to %s\n", path)
	}
	return runErr
}

func run(out io.Writer, cfg bench.Config, fig, tableNo int, ablations bool) error {
	sep := func() { fmt.Fprintln(out) }

	type exp struct {
		fig int
		fn  func() error
	}
	figures := []exp{
		{3, func() error { return bench.Figure3(out) }},
		{5, func() error { return bench.Figure5(out, cfg) }},
		{6, func() error { return bench.Figure6(out, cfg) }},
		{7, func() error { return bench.Figure7(out, cfg) }},
		{8, func() error { return bench.Figure8(out, cfg, nil) }},
		{9, func() error { return bench.Figure9(out, cfg) }},
		{10, func() error { return bench.Figure10(out, cfg) }},
		{11, func() error { return bench.Figure11(out, cfg) }},
	}

	if ablations {
		if err := bench.QueueDisciplines(out, cfg); err != nil {
			return err
		}
		sep()
		if err := bench.ScoringFunctions(out, cfg); err != nil {
			return err
		}
		sep()
		if err := bench.RewritingVsPlanRelaxation(out, cfg); err != nil {
			return err
		}
		sep()
		if err := bench.ExactBaseline(out, cfg); err != nil {
			return err
		}
		sep()
		return bench.DiskVsMemory(out, cfg)
	}
	if fig != 0 {
		for _, e := range figures {
			if e.fig == fig {
				return e.fn()
			}
		}
		return fmt.Errorf("unknown figure %d (have 3, 5-11)", fig)
	}
	if tableNo != 0 {
		if tableNo == 2 {
			return bench.Table2(out, cfg)
		}
		return fmt.Errorf("unknown table %d (have 2)", tableNo)
	}
	for _, e := range figures {
		if err := e.fn(); err != nil {
			return err
		}
		sep()
	}
	if err := bench.Table2(out, cfg); err != nil {
		return err
	}
	sep()
	if err := bench.QueueDisciplines(out, cfg); err != nil {
		return err
	}
	sep()
	if err := bench.ScoringFunctions(out, cfg); err != nil {
		return err
	}
	sep()
	if err := bench.RewritingVsPlanRelaxation(out, cfg); err != nil {
		return err
	}
	sep()
	if err := bench.ExactBaseline(out, cfg); err != nil {
		return err
	}
	sep()
	return bench.DiskVsMemory(out, cfg)
}
