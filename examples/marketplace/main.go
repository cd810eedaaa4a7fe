// Marketplace: a production-flavored workflow — generate a catalog,
// persist it as an mmap snapshot, reopen it, and run top-k queries with
// the extended content predicates (numeric comparisons, contains,
// inequality) under a deadline. Also shows query-projected loading for
// memory-constrained ingestion.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
)

func main() {
	// Build a catalog and persist it.
	db, err := whirlpool.GenerateXMark(whirlpool.XMarkOptions{Seed: 21, Items: 300})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "marketplace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "catalog.wpxs")
	if err := db.SaveSnapshot(snap, whirlpool.SnapshotOptions{}); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(snap)
	fmt.Printf("catalog: %d nodes, snapshot %d KB\n\n", db.Size(), info.Size()/1024)

	// Reopen the snapshot (mapped read-only: no XML re-parse, no index
	// build) and query it; Close releases the mapping.
	db, err = whirlpool.OpenSnapshot(snap)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Extended content predicates: cheap items in small quantities whose
	// name mentions "gold".
	queries := []string{
		"//item[./quantity < 3 and ./name contains 'gold']",
		"//item[./payment != 'Cash' and ./quantity >= 4]",
		"//item[./description/parlist and ./quantity <= 2]",
	}
	for _, xp := range queries {
		q, err := whirlpool.ParseQuery(xp)
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := db.TopKContext(ctx, q, whirlpool.Approximate(3))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", xp)
		for i, a := range res.Answers {
			fmt.Printf("  %d. score=%.3f item@%s %s\n", i+1, a.Score, a.Root.ID, describe(q, a))
		}
		fmt.Println()
	}

	// Query-projected loading: re-ingest the serialized catalog keeping
	// only what one query needs.
	var xmlText strings.Builder
	if err := db.Document().Serialize(&xmlText); err != nil {
		log.Fatal(err)
	}
	q := whirlpool.MustParseQuery("//item[./quantity < 3 and ./name contains 'gold']")
	projected, err := whirlpool.LoadProjected(strings.NewReader(xmlText.String()), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projected load: %d nodes (full load had %d) — same top answer: ", projected.Size(), db.Size())
	full, _ := db.TopK(q, whirlpool.Approximate(1))
	proj, _ := projected.TopK(q, whirlpool.Approximate(1))
	fmt.Printf("%.3f vs %.3f\n", full.Answers[0].Score, proj.Answers[0].Score)
}

// describe pulls the bound name and quantity out of an answer.
func describe(q *whirlpool.Query, a whirlpool.Answer) string {
	name, qty := "?", "?"
	for id, b := range a.Bindings {
		if b == nil || id == 0 {
			continue
		}
		switch q.Nodes[id].Tag {
		case "name":
			name = b.Value
		case "quantity":
			qty = b.Value
		}
	}
	return fmt.Sprintf("(%s, qty %s)", name, qty)
}
