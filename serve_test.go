package whirlpool

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestServeBuildsNoSlab: whirlpoold's path never builds the *Node slab.
// It boots by Load and by OpenSnapshot — whole and in 4 shards — and
// serves Q1–Q3 × k ∈ {3, 15, 75} × exact/relaxed as the daemon
// does: a plan from the planner, the embedded core engine's ordinal
// answers, each root's path and Dewey ID and every binding's Dewey ID
// rendered from the columns, and the forest roots /stats counts. It
// saves a snapshot from the loaded database as well. No step may build
// a slab.
func TestServeBuildsNoSlab(t *testing.T) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 256<<10); err != nil {
		t.Fatal(err)
	}
	before := xmltree.SlabsBuilt()
	loaded, err := Load(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := loaded.SaveSnapshot(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for _, db := range []*Database{loaded, opened} {
		for _, shards := range []int{1, 4} {
			serveAndRender(t, db, shards)
		}
	}
	if built := xmltree.SlabsBuilt() - before; built != 0 {
		t.Fatalf("booting, serving, rendering and saving built %d node slabs, want none", built)
	}
}

// paperQueries are the paper's Q1–Q3 (internal/bench).
var paperQueries = []string{
	"//item[./description/parlist]",
	"//item[./description/parlist and ./mailbox/mail/text]",
	"//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
}

// serveAndRender runs the daemon's query path over db, in shards when
// there is more than one.
func serveAndRender(t *testing.T, db *Database, shards int) {
	t.Helper()
	planner := db.NewPlanner(16)
	var sdb *ShardedDatabase
	if shards > 1 {
		var err error
		if sdb, err = db.Shard(shards); err != nil {
			t.Fatal(err)
		}
		planner = sdb.NewPlanner(16)
	}
	cols := db.Columns()
	if cols.Roots() != 1 {
		t.Fatalf("%d forest roots, want the site", cols.Roots())
	}
	var out []byte
	for _, xpath := range paperQueries {
		q := MustParseQuery(xpath)
		for _, k := range []int{3, 15, 75} {
			for _, exact := range []bool{true, false} {
				opts := Approximate(k)
				if exact {
					opts.Relax = RelaxNone
				}
				plan, _, err := planner.PlanFor(q, opts.Relax, NormSparse)
				if err != nil {
					t.Fatal(err)
				}
				opts.Plan = plan
				var res *core.Result
				if sdb != nil {
					e, err := sdb.NewEngine(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err = e.Engines.RunContext(context.Background())
				} else {
					e, err := db.NewEngine(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err = e.Engine.RunContext(context.Background())
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Answers) == 0 {
					t.Fatalf("%s k=%d exact=%v: no answers", xpath, k, exact)
				}
				for _, a := range res.Answers {
					out = cols.AppendDewey(append(append(out[:0], cols.Path(a.Root)...), '@'), a.Root)
					for _, b := range a.Bindings {
						if b >= 0 {
							out = cols.AppendDewey(append(out, ' '), b)
						}
					}
				}
			}
		}
	}
}
