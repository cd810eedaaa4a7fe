// Command whirlpool runs a top-k tree-pattern query against an XML file
// or a .wpxs snapshot of one.
//
// Usage:
//
//	whirlpool -file catalog.xml -query "/book[./title = 'wodehouse']" -k 5
//	whirlpool -file site.xml -query "//item[./description/parlist]" -k 10 -algorithm whirlpool-m
//	whirlpool -file site.xml -query "//item[./name]" -exact -stats
//	whirlpool -file site.xml -save-snapshot site.wpxs          # write an mmap snapshot
//	whirlpool -file site.wpxs -query "//item[./quantity < 3]"  # query it, no parse or build
//
// Flags select the algorithm (whirlpool-s, whirlpool-m, lockstep,
// lockstep-noprun), the routing strategy, the queue discipline and the
// scoring normalization; -exact disables query relaxation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

func main() {
	var (
		file      = flag.String("file", "", "XML file or .wpxs snapshot to query (required)")
		queryStr  = flag.String("query", "", "tree-pattern query, e.g. //item[./name] (required)")
		k         = flag.Int("k", 10, "number of answers")
		algorithm = flag.String("algorithm", "whirlpool-s", "whirlpool-s | whirlpool-m | lockstep | lockstep-noprun")
		routing   = flag.String("routing", "min-alive", "min-alive | max-score | min-score | static")
		queue     = flag.String("queue", "max-final", "max-final | max-next | current | fifo")
		norm      = flag.String("norm", "sparse", "sparse | dense | raw scoring normalization")
		exact     = flag.Bool("exact", false, "exact matches only (no relaxation)")
		stats     = flag.Bool("stats", false, "print evaluation statistics")
		bindings  = flag.Bool("bindings", false, "print per-answer bindings")
		saveSnap  = flag.String("save-snapshot", "", "write a zero-copy mmap snapshot (.wpxs) to this path; -query becomes optional")
	)
	flag.Parse()
	if *file == "" || (*queryStr == "" && *saveSnap == "") {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*file, *queryStr, *k, *algorithm, *routing, *queue, *norm, *exact, *stats, *bindings,
		*saveSnap); err != nil {
		fmt.Fprintln(os.Stderr, "whirlpool:", err)
		os.Exit(1)
	}
}

func run(file, queryStr string, k int, algorithm, routing, queue, norm string, exact, stats, bindings bool,
	saveSnap string) error {
	var db *whirlpool.Database
	var err error
	if strings.HasPrefix(filepath.Ext(file), ".wpx") {
		// .wpxs, and a retired v1 .wpx so it gets OpenSnapshot's
		// regenerate-it error instead of an XML syntax error.
		db, err = whirlpool.OpenSnapshot(file)
	} else {
		db, err = whirlpool.LoadFile(file)
	}
	if err != nil {
		return err
	}
	defer db.Close()
	if saveSnap != "" {
		if err := db.SaveSnapshot(saveSnap, whirlpool.SnapshotOptions{}); err != nil {
			return err
		}
		if fi, err := os.Stat(saveSnap); err == nil {
			fmt.Printf("snapshot: %s (%d bytes, %d nodes)\n", saveSnap, fi.Size(), db.Size())
		}
		if queryStr == "" {
			return nil
		}
	}
	q, err := whirlpool.ParseQuery(queryStr)
	if err != nil {
		return err
	}
	opts := whirlpool.Options{K: k, Relax: whirlpool.RelaxAll}
	if exact {
		opts.Relax = whirlpool.RelaxNone
	}
	switch algorithm {
	case "whirlpool-s":
		opts.Algorithm = whirlpool.WhirlpoolS
	case "whirlpool-m":
		opts.Algorithm = whirlpool.WhirlpoolM
	case "lockstep":
		opts.Algorithm = whirlpool.LockStep
	case "lockstep-noprun":
		opts.Algorithm = whirlpool.LockStepNoPrune
	default:
		return fmt.Errorf("unknown algorithm %q", algorithm)
	}
	switch routing {
	case "min-alive":
		opts.Routing = whirlpool.RoutingMinAlive
	case "max-score":
		opts.Routing = whirlpool.RoutingMaxScore
	case "min-score":
		opts.Routing = whirlpool.RoutingMinScore
	case "static":
		opts.Routing = whirlpool.RoutingStatic
	default:
		return fmt.Errorf("unknown routing %q", routing)
	}
	switch queue {
	case "max-final":
		opts.Queue = whirlpool.QueueMaxFinal
	case "max-next":
		opts.Queue = whirlpool.QueueMaxNext
	case "current":
		opts.Queue = whirlpool.QueueCurrentScore
	case "fifo":
		opts.Queue = whirlpool.QueueFIFO
	default:
		return fmt.Errorf("unknown queue %q", queue)
	}
	switch norm {
	case "sparse":
		opts.Normalization = whirlpool.NormSparse
	case "dense":
		opts.Normalization = whirlpool.NormDense
	case "raw":
		opts.Normalization = whirlpool.NormRaw
	default:
		return fmt.Errorf("unknown normalization %q", norm)
	}

	res, err := db.TopK(q, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%d answer(s) for %s\n", len(res.Answers), q)
	for i, a := range res.Answers {
		fmt.Printf("%2d. score=%.4f  %s @ %s\n", i+1, a.Score, a.Root.Path(), a.Root.ID)
		if bindings {
			for id, b := range a.Bindings {
				node := q.Nodes[id]
				switch {
				case b == nil && id == 0:
				case b == nil:
					fmt.Printf("      %-12s (relaxed away)\n", node.Tag)
				default:
					val := b.Value
					if len(val) > 40 {
						val = val[:40] + "…"
					}
					fmt.Printf("      %-12s %s %s\n", node.Tag, b.ID, strings.TrimSpace(val))
				}
			}
		}
	}
	if stats {
		s := res.Stats
		fmt.Printf("stats: %v, %d server ops, %d join comparisons, %d matches created, %d pruned\n",
			s.Duration.Round(10_000), s.ServerOps, s.JoinComparisons, s.MatchesCreated, s.Pruned)
	}
	return nil
}
