package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current code")

// TestKernelCountersPinned pins what the deterministic algorithms do, to
// the digit: server operations, join comparisons, matches created and
// pruned, and the answer roots, for the paper's Q1–Q3 and two valued
// queries — whose roots stream from a posting list, under leaf deletion
// in segments, the full pass first — in both modes at three k under every queue
// discipline. The Q1–Q3 rows were written by the four hand-rolled
// driver loops that preceded the step kernel, the valued rows by the
// kernel beside LockStep's own phase loop; any refactoring of the
// drivers must reproduce every row unmodified.
func TestKernelCountersPinned(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
		"//item[./location = 'United States' and ./quantity = '1']",
		"//mail[./from and .//keyword = 'officer']",
	}
	modes := []struct {
		name string
		rel  relax.Relaxation
	}{{"exact", relax.None}, {"relaxed", relax.All}}
	var got bytes.Buffer
	for qi, xpath := range queries {
		q := pattern.MustParse(xpath)
		s := score.NewTFIDF(ix, q, score.Sparse)
		for _, mode := range modes {
			for _, k := range []int{3, 15, 75} {
				for _, alg := range []Algorithm{WhirlpoolS, LockStep, LockStepNoPrune} {
					for _, queue := range allQueues {
						res := runWith(t, ix, q, Config{
							K: k, Relax: mode.rel, Algorithm: alg, Queue: queue,
							Routing: RoutingMinAlive, Scorer: s,
						})
						ords := make([]string, len(res.Answers))
						for i, a := range res.Answers {
							ords[i] = fmt.Sprint(a.Root)
						}
						st := res.Stats
						fmt.Fprintf(&got, "Q%d/%s/k%d/%v/%v ops=%d joins=%d created=%d pruned=%d roots=%s\n",
							qi+1, mode.name, k, alg, queue,
							st.ServerOps, st.JoinComparisons, st.MatchesCreated, st.Pruned, strings.Join(ords, ","))
					}
				}
			}
		}
	}
	const golden = "testdata/kernel_counters.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cases, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
