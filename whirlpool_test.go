package whirlpool

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const catalogXML = `
<book>
  <title>wodehouse</title>
  <info>
    <publisher><name>psmith</name><location>london</location></publisher>
  </info>
  <price>48.95</price>
</book>
<book>
  <title>wodehouse</title>
  <publisher><name>psmith</name></publisher>
</book>
<book>
  <reviews><title>wodehouse</title></reviews>
</book>`

func TestLoadAndTopK(t *testing.T) {
	db, err := LoadString(catalogXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.TopKString("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']", Approximate(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(res.Answers))
	}
	if res.Answers[0].Root.Path() != "book" {
		t.Fatalf("answer root = %s", res.Answers[0].Root.Path())
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Score > res.Answers[i-1].Score {
			t.Fatal("answers not sorted")
		}
	}
}

func TestExactOptions(t *testing.T) {
	db, err := LoadString(catalogXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.TopKString("/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']", Exact(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("exact answers = %d, want 1", len(res.Answers))
	}
}

func TestAllAlgorithmsViaFacade(t *testing.T) {
	db, err := LoadString(catalogXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("/book[.//title = 'wodehouse']")
	var base []float64
	for _, alg := range []Algorithm{WhirlpoolS, WhirlpoolM, LockStep, LockStepNoPrune} {
		opts := Approximate(2)
		opts.Algorithm = alg
		res, err := db.TopK(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, len(res.Answers))
		for i, a := range res.Answers {
			scores[i] = a.Score
		}
		if base == nil {
			base = scores
			continue
		}
		if len(scores) != len(base) {
			t.Fatalf("%v: %v vs %v", alg, scores, base)
		}
		for i := range base {
			if math.Abs(scores[i]-base[i]) > 1e-9 {
				t.Fatalf("%v: %v vs %v", alg, scores, base)
			}
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.xml")
	if err := os.WriteFile(path, []byte(catalogXML), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() == 0 {
		t.Fatal("empty database")
	}
	if db.Document().Size() != db.Size() {
		t.Fatal("Document accessor inconsistent")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString("<a><b></a>"); err == nil {
		t.Fatal("malformed XML should error")
	}
	if _, err := Load(strings.NewReader("<a>")); err == nil {
		t.Fatal("unclosed XML should error")
	}
}

func TestParseQueryErrors(t *testing.T) {
	if _, err := ParseQuery("not an xpath"); err == nil {
		t.Fatal("bad query should error")
	}
	db, _ := LoadString(catalogXML)
	if _, err := db.TopKString("also bad", Approximate(1)); err == nil {
		t.Fatal("TopKString should surface parse errors")
	}
	if _, err := db.TopK(nil, Approximate(1)); err == nil {
		t.Fatal("nil query should error")
	}
}

// TestSiblingAxisOutsideQueryModel: every evaluator, built, sharded
// or snapshot-backed, refuses a following-sibling step as a parse error
// naming the axis, whatever the relaxation.
func TestSiblingAxisOutsideQueryModel(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := db.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := db.SaveSnapshot(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	const xpath = "//item[./mailbox/mail[./from and following-sibling::mail]]"
	for _, ev := range []struct {
		name string
		topK func(string, Options) (*Result, error)
	}{{"database", db.TopKString}, {"sharded", sdb.TopKString}, {"snapshot", snap.TopKString}} {
		for _, mode := range []struct {
			name string
			opts Options
		}{{"exact", Exact(3)}, {"relaxed", Approximate(3)}} {
			t.Run(ev.name+"-"+mode.name, func(t *testing.T) {
				if _, err := ev.topK(xpath, mode.opts); err == nil || !strings.Contains(err.Error(), "unsupported axis following-sibling::") {
					t.Fatalf("TopKString = %v, want a parse error naming the following-sibling axis", err)
				}
			})
		}
	}
}

func TestDefaultK(t *testing.T) {
	db, _ := LoadString(catalogXML)
	res, err := db.TopKString("/book", Options{Relax: RelaxAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 { // default k=10 > 3 books
		t.Fatalf("answers = %d", len(res.Answers))
	}
}

func TestGenerateXMark(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 1, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.TopKString("//item[./description/parlist]", Approximate(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers on generated document")
	}
	// Bytes sizing.
	db2, err := GenerateXMark(XMarkOptions{Seed: 1, Bytes: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Size() == 0 {
		t.Fatal("empty generated database")
	}
	// Invalid option combinations.
	if _, err := GenerateXMark(XMarkOptions{Seed: 1}); err == nil {
		t.Fatal("no sizing should error")
	}
	if _, err := GenerateXMark(XMarkOptions{Seed: 1, Items: 5, Bytes: 5}); err == nil {
		t.Fatal("double sizing should error")
	}
}

func TestAnswerScore(t *testing.T) {
	db, _ := LoadString(catalogXML)
	q := MustParseQuery("/book[./title = 'wodehouse']")
	books := db.Document().Roots
	s0 := db.AnswerScore(q, NormRaw, books[0])
	s2 := db.AnswerScore(q, NormRaw, books[2])
	if s0 <= s2 {
		t.Fatalf("exact book score %v must beat approximate %v", s0, s2)
	}
}

// Scores compare exactly: reuse must reproduce bit-identical scores.
func TestEngineReuse(t *testing.T) {
	db, _ := LoadString(catalogXML)
	q := MustParseQuery("/book[./title = 'wodehouse']")
	e, err := db.NewEngine(q, Approximate(2))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Answers) != len(r2.Answers) {
		t.Fatal("engine reuse changed results")
	}
	for i := range r1.Answers {
		if r1.Answers[i].Score != r2.Answers[i].Score {
			t.Fatal("engine reuse changed scores")
		}
	}
}

func TestLoadProjectedAnswersMatchFullLoad(t *testing.T) {
	full, err := GenerateXMark(XMarkOptions{Seed: 4, Items: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := full.Document().Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//item[./description/parlist and ./mailbox/mail/text]")
	proj, err := LoadProjected(strings.NewReader(buf.String()), q)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Size() >= full.Size() {
		t.Fatalf("projection did not shrink: %d vs %d", proj.Size(), full.Size())
	}
	rFull, err := full.TopK(q, Approximate(10))
	if err != nil {
		t.Fatal(err)
	}
	rProj, err := proj.TopK(q, Approximate(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rFull.Answers) != len(rProj.Answers) {
		t.Fatalf("answers %d vs %d", len(rFull.Answers), len(rProj.Answers))
	}
	for i := range rFull.Answers {
		if math.Abs(rFull.Answers[i].Score-rProj.Answers[i].Score) > 1e-9 {
			t.Fatalf("answer %d: %v vs %v", i, rFull.Answers[i].Score, rProj.Answers[i].Score)
		}
	}
	if _, err := LoadProjected(strings.NewReader("<a/>"), nil); err == nil {
		t.Fatal("nil query should error")
	}
}

func TestTopKContextCancel(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 2, Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := MustParseQuery("//item[./name]")
	if _, err := db.TopKContext(ctx, q, Approximate(5)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCostBasedOrderFacade(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 2, Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//item[./description/parlist and ./mailbox/mail/text]")
	order := db.CostBasedOrder(q, RelaxAll)
	if len(order) != q.Size()-1 {
		t.Fatalf("order = %v", order)
	}
	opts := Approximate(5)
	opts.Routing = RoutingStatic
	opts.Order = order
	if _, err := db.TopK(q, opts); err != nil {
		t.Fatal(err)
	}
}

func TestShardedDatabaseFacade(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 60})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := db.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := sdb.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if sdb.Size() != db.Size() {
		t.Fatalf("sharded size %d, database size %d", sdb.Size(), db.Size())
	}
	const xpath = "//item[./description/parlist and ./mailbox/mail/text]"
	base, err := db.TopKString(xpath, Approximate(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sdb.TopKString(xpath, Approximate(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(base.Answers) {
		t.Fatalf("sharded answers = %d, baseline %d", len(res.Answers), len(base.Answers))
	}
	for i := range base.Answers {
		if math.Abs(res.Answers[i].Score-base.Answers[i].Score) > 1e-9 {
			t.Fatalf("answer %d: sharded score %v, baseline %v",
				i, res.Answers[i].Score, base.Answers[i].Score)
		}
	}
	// Cancellation reaches the shard runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sdb.TopKContext(ctx, MustParseQuery(xpath), Approximate(8)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestShardedDatabaseErrors(t *testing.T) {
	db, err := LoadString(catalogXML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Shard(0); err == nil {
		t.Fatal("zero shard count accepted")
	}
	sdb, err := db.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.TopK(nil, Approximate(3)); err == nil {
		t.Fatal("nil query accepted")
	}
}
