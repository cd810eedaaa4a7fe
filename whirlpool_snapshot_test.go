package whirlpool

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// snapshotEquivalenceQueries are the probe queries for the
// snapshot-vs-build property: a structural query, a value predicate and
// a deep disjunction, covering tag postings, value postings and the
// relaxation machinery.
var snapshotEquivalenceQueries = []string{
	"//item[./description/parlist and ./mailbox/mail/text]",
	"//item[./payment = 'Creditcard']",
	"//item[./description/parlist/listitem and ./shipping]",
}

// TestSnapshotAnswersMatchBuild is the answer-equivalence property for
// the mmap snapshot: for every algorithm in {Whirlpool-S, Whirlpool-M},
// relaxation mode in {exact, relaxed} and shard count in {1, 8} (the
// databases themselves, then a Shard(8) of each), a database served
// from an mmapped snapshot must return the same ranked answers (root
// ordinals and scores) as one built from the XML. Runs
// under -race in CI, so it also exercises the lazy node-slab
// materialization and the shard runs over a mapped document
// concurrently.
func TestSnapshotAnswersMatchBuild(t *testing.T) {
	built, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := built.SaveSnapshot(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !snap.SnapshotBacked() {
		t.Fatal("OpenSnapshot database not snapshot-backed")
	}

	builtShards, err := built.Shard(8)
	if err != nil {
		t.Fatal(err)
	}
	snapShards, err := snap.Shard(8)
	if err != nil {
		t.Fatal(err)
	}
	type topK interface {
		TopK(*Query, Options) (*Result, error)
	}
	sides := []struct {
		shards      int
		built, snap topK
	}{{1, built, snap}, {8, builtShards, snapShards}}

	algorithms := []Algorithm{WhirlpoolS, WhirlpoolM}
	for _, alg := range algorithms {
		for _, relaxed := range []bool{false, true} {
			for _, side := range sides {
				mode := "exact"
				opts := Exact(10)
				if relaxed {
					mode = "relaxed"
					opts = Approximate(10)
				}
				opts.Algorithm = alg
				name := fmt.Sprintf("%v/%s/shards-%d", alg, mode, side.shards)
				t.Run(name, func(t *testing.T) {
					for _, qs := range snapshotEquivalenceQueries {
						q := MustParseQuery(qs)
						want, err := side.built.TopK(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := side.snap.TopK(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if len(got.Answers) != len(want.Answers) {
							t.Fatalf("%s: snapshot returned %d answers, build returned %d",
								qs, len(got.Answers), len(want.Answers))
						}
						for i := range want.Answers {
							if got.Answers[i].Root.Ord != want.Answers[i].Root.Ord {
								t.Fatalf("%s: answer %d root ord %d != %d",
									qs, i, got.Answers[i].Root.Ord, want.Answers[i].Root.Ord)
							}
							if math.Abs(got.Answers[i].Score-want.Answers[i].Score) > 1e-9 {
								t.Fatalf("%s: answer %d score %v != %v",
									qs, i, got.Answers[i].Score, want.Answers[i].Score)
							}
						}
					}
				})
			}
		}
	}
}
