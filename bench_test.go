// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus micro-benchmarks of the engine's building
// blocks. Each BenchmarkFigureN/BenchmarkTableN iteration performs one
// full regeneration of that experiment at a reduced document scale; run
// cmd/whirlbench to print the resulting series, and cmd/whirlbench -full
// for paper-scale parameters.
package whirlpool_test

import (
	"context"
	"io"
	"testing"
	"time"

	whirlpool "repro"
	"repro/internal/bench"
)

// benchConfig keeps the per-iteration cost of the figure benchmarks
// reasonable: ~20 KB / 200 KB / 1 MB documents, 12 static permutations.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:        0.02,
		Seed:         1,
		K:            15,
		OpCost:       20 * time.Microsecond,
		StaticOrders: 12,
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure5(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure6(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure7(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	cfg := benchConfig()
	costs := []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond}
	for i := 0; i < b.N; i++ {
		if err := bench.Figure8(io.Discard, cfg, costs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure9(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure10(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure11(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	cfg.OpCost = 0 // Table 2 counts matches, not time
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueDisciplineAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.QueueDisciplines(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoringFunctionAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.ScoringFunctions(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine micro-benchmarks ---

func benchDB(b *testing.B, items int) *whirlpool.Database {
	b.Helper()
	db, err := whirlpool.GenerateXMark(whirlpool.XMarkOptions{Seed: 1, Items: items})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchTopK(b *testing.B, alg whirlpool.Algorithm) {
	db := benchDB(b, 500)
	q := whirlpool.MustParseQuery("//item[./description/parlist and ./mailbox/mail/text]")
	opts := whirlpool.Approximate(15)
	opts.Algorithm = alg
	eng, err := db.NewEngine(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		ops = res.Stats.ServerOps
	}
	b.ReportMetric(float64(ops), "serverops/op")
}

// BenchmarkServeMix runs what whirlpoold serves on the benchmark's
// mix workloads: the 18 classes Q1–Q3 × k ∈ {3, 15, 75} × exact/relaxed
// over the 8 MB seed-1 XMark corpus, each engine planned and built the
// way the daemon builds it, each run on the embedded core engine the
// daemon calls. One iteration runs every class once; `make profile`
// profiles it.
func BenchmarkServeMix(b *testing.B) {
	db, err := whirlpool.GenerateXMark(whirlpool.XMarkOptions{Seed: 1, Bytes: 8388608})
	if err != nil {
		b.Fatal(err)
	}
	planner := db.NewPlanner(256)
	var engines []*whirlpool.Engine
	for _, w := range bench.Queries() {
		for _, k := range []int{3, 15, 75} {
			for _, exact := range []bool{true, false} {
				opts := whirlpool.Approximate(k)
				if exact {
					opts.Relax = whirlpool.RelaxNone
				}
				q, err := whirlpool.ParseQuery(w.XPath)
				if err != nil {
					b.Fatal(err)
				}
				if opts.Plan, _, err = planner.PlanFor(q, opts.Relax, whirlpool.NormSparse); err != nil {
					b.Fatal(err)
				}
				eng, err := db.NewEngine(q, opts)
				if err != nil {
					b.Fatal(err)
				}
				engines = append(engines, eng)
			}
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		ops = 0
		for _, eng := range engines {
			res, err := eng.Engine.RunContext(ctx)
			if err != nil {
				b.Fatal(err)
			}
			ops += res.Stats.ServerOps
		}
	}
	b.ReportMetric(float64(ops), "serverops/op")
}

func BenchmarkTopKWhirlpoolS(b *testing.B)      { benchTopK(b, whirlpool.WhirlpoolS) }
func BenchmarkTopKWhirlpoolM(b *testing.B)      { benchTopK(b, whirlpool.WhirlpoolM) }
func BenchmarkTopKLockStep(b *testing.B)        { benchTopK(b, whirlpool.LockStep) }
func BenchmarkTopKLockStepNoPrune(b *testing.B) { benchTopK(b, whirlpool.LockStepNoPrune) }

func BenchmarkLoadAndIndex(b *testing.B) {
	var buf []byte
	{
		db := benchDB(b, 300)
		_ = db
	}
	// Serialize once, then time parse+index.
	db := benchDB(b, 300)
	var sb sliceWriter
	if err := db.Document().Serialize(&sb); err != nil {
		b.Fatal(err)
	}
	buf = sb
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := whirlpool.LoadString(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

type sliceWriter []byte

func (s *sliceWriter) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

func BenchmarkParseQuery(b *testing.B) {
	const xp = "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]"
	for i := 0; i < b.N; i++ {
		if _, err := whirlpool.ParseQuery(xp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactVsRelaxed(b *testing.B) {
	db := benchDB(b, 500)
	q := whirlpool.MustParseQuery("//item[./description/parlist and ./mailbox/mail/text]")
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.TopK(q, whirlpool.Exact(15)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relaxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.TopK(q, whirlpool.Approximate(15)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSnapshotOpen(b *testing.B) {
	db := benchDB(b, 500)
	dir := b.TempDir()
	path := dir + "/snap.wpxs"
	if err := db.SaveSnapshot(path, whirlpool.SnapshotOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := whirlpool.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
}
