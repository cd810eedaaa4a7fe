// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each FigureN/TableN function runs the
// corresponding experiment and prints the same rows/series the paper
// reports. Absolute numbers depend on the host; the experiments are
// about shape: who wins, by roughly what factor, and where the
// crossovers fall (see EXPERIMENTS.md at the repository root).
//
// The Config.Scale knob shrinks the paper's 1 MB / 10 MB / 50 MB
// documents so `go test -bench` finishes quickly; cmd/whirlbench -full
// runs paper-scale settings.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// relaxAll aliases the paper's full relaxation set.
const relaxAll = relax.All

// The paper's three XMark queries (Section 6.2.1).
var (
	// Q1 is the 3-node query.
	Q1 = Workload{Name: "Q1", XPath: "//item[./description/parlist]"}
	// Q2 is the 6-node query — the paper's default.
	Q2 = Workload{Name: "Q2", XPath: "//item[./description/parlist and ./mailbox/mail/text]"}
	// Q3 is the 8-node query.
	Q3 = Workload{Name: "Q3", XPath: "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]"}
)

// Workload is one benchmark query.
type Workload struct {
	Name  string
	XPath string
}

// Queries returns Q1–Q3 in order.
func Queries() []Workload { return []Workload{Q1, Q2, Q3} }

// Paper document sizes in bytes (Table 1).
const (
	Doc1MB  = 1 << 20
	Doc10MB = 10 << 20
	Doc50MB = 50 << 20
)

// Config parameterizes the experiments.
type Config struct {
	// Scale multiplies the paper's document sizes (default 0.02, i.e.
	// ~20 KB / 200 KB / 1 MB). Scale 1 reproduces the paper's sizes.
	Scale float64
	// Seed drives document generation.
	Seed int64
	// K is the number of answers (default 15, the paper's default).
	K int
	// OpCost is the synthetic per-operation cost for wall-clock figures
	// (default 100 µs; the paper reports results at ~1.8 ms).
	OpCost time.Duration
	// Norm selects the scoring function (default sparse).
	Norm score.Normalization
	// StaticOrders caps how many of the 120 static permutations the
	// static-vs-adaptive figures evaluate (default all for ≤ 120).
	StaticOrders int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.K == 0 {
		c.K = 15
	}
	if c.OpCost == 0 {
		c.OpCost = 100 * time.Microsecond
	}
	if c.Norm == score.Raw {
		c.Norm = score.Sparse
	}
	if c.StaticOrders == 0 {
		c.StaticOrders = 120
	}
	return c
}

func (c Config) bytesFor(paperBytes int) int {
	b := int(float64(paperBytes) * c.Scale)
	if b < 4096 {
		b = 4096
	}
	return b
}

// Env bundles a generated document with parsed queries and scorers.
type Env struct {
	Ix    index.Source
	Bytes int
	// Doc is the generated document (nil when Env wraps an external
	// source).
	Doc     *xmltree.Document
	queries map[string]*pattern.Query
	scorers map[string]*score.TFIDF
	norm    score.Normalization
}

// NewEnv generates an XMark document of roughly targetBytes and prepares
// Q1–Q3 against it.
func NewEnv(seed int64, targetBytes int, norm score.Normalization) (*Env, error) {
	doc, size, err := xmark.GenerateBytes(seed, targetBytes)
	if err != nil {
		return nil, err
	}
	e := &Env{
		Ix:      index.Build(doc),
		Bytes:   size,
		Doc:     doc,
		queries: make(map[string]*pattern.Query),
		scorers: make(map[string]*score.TFIDF),
		norm:    norm,
	}
	for _, w := range Queries() {
		q, err := pattern.Parse(w.XPath)
		if err != nil {
			return nil, err
		}
		e.queries[w.Name] = q
		e.scorers[w.Name] = score.NewTFIDF(e.Ix, q, norm)
	}
	return e, nil
}

// Query returns the parsed pattern for a workload.
func (e *Env) Query(w Workload) *pattern.Query { return e.queries[w.Name] }

// Scorer returns the tf*idf scorer for a workload.
func (e *Env) Scorer(w Workload) *score.TFIDF { return e.scorers[w.Name] }

// Run executes one configuration and returns the result.
func (e *Env) Run(w Workload, cfg runConfig) (*core.Result, error) {
	eng, err := core.NewExperiment(e.Ix, e.Query(w), cfg.Config, cfg.Experiment)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// MustRun is Run that panics on error (experiment configurations are
// code-controlled).
func (e *Env) MustRun(w Workload, cfg runConfig) *core.Result {
	res, err := e.Run(w, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// runConfig is an engine configuration with the experiment-only knobs
// beside it (core.NewExperiment).
type runConfig struct {
	core.Config
	core.Experiment
}

// baseConfig is the paper's default engine configuration: all
// relaxations, min_alive routing, max-possible-final queues, and the
// paper's pruning: its root server and threshold-only pruning
// (core.Experiment.PaperRoots).
func baseConfig(c Config, e *Env, w Workload, alg core.Algorithm) runConfig {
	return runConfig{core.Config{
		K:         c.K,
		Relax:     relaxAll,
		Algorithm: alg,
		Routing:   core.RoutingMinAlive,
		Queue:     core.QueueMaxFinal,
		Scorer:    e.Scorer(w),
	}, core.Experiment{OpCost: c.OpCost, PaperRoots: true}}
}

// table prints an aligned table.
type table struct {
	w      io.Writer
	widths []int
	rows   [][]string
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: w}
	t.add(headers...)
	return t
}

func (t *table) add(cells ...string) {
	for i, c := range cells {
		if i >= len(t.widths) {
			t.widths = append(t.widths, 0)
		}
		if len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *table) flush() {
	for ri, row := range t.rows {
		for i, c := range row {
			fmt.Fprintf(t.w, "%-*s", t.widths[i]+2, c)
		}
		fmt.Fprintln(t.w)
		if ri == 0 {
			for i := range row {
				for j := 0; j < t.widths[i]+2; j++ {
					if j < t.widths[i] {
						fmt.Fprint(t.w, "-")
					} else {
						fmt.Fprint(t.w, " ")
					}
				}
			}
			fmt.Fprintln(t.w)
		}
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000.0)
}
