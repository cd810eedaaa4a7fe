package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	whirlpool "repro"
)

// planValuedXPath is the plan-valued case's query: a whirlload
// cold_shapes loc_qty instance, two equality predicates the synopsis
// cannot answer; plan-valued-warm alternates it with the Alt sibling.
const (
	planValuedXPath    = "//item[./location = 'United States' and ./quantity = '1']"
	planValuedAltXPath = "//item[./location = 'United States' and ./quantity = '2']"
)

// planCases measures the cost of query planning — everything between a
// parsed query and a runnable engine — along the paths the serving
// layer can take, and returns them as report cases:
//
//	plan-cold      one statistics pass over the index (every node's
//	               postings walked up to the roots) shared by the scorer
//	               and the engine's routing numbers, + plan construction
//	               from scratch (the pre-planner path)
//	plan-synopsis  plan compiled from the structure synopsis (no index
//	               access), engine built from the plan — a cache miss
//	plan-hot       plan served from the planner cache, engine built
//	               from the plan — a cache hit, the steady serving state
//	plan-valued    plan-synopsis for planValuedXPath: the synopsis
//	               answers the root, each valued node's (tag, value)
//	               postings are walked once — a cold_shapes first touch
//	plan-valued-warm  the same miss on a one-plan planner whose memo has
//	               learned the predicates — cold_shapes after warm-up
//
// All of them include engine construction (what an engine-cache miss
// pays after planning) and none include query evaluation, so the
// cold/hot ratio isolates the planning work the cache elides. The
// synopsis build itself is charged once, outside the timed ops: it is
// an index-time cost amortized over every plan compiled after it.
func planCases(out io.Writer, env *Env, cfg Config, w Workload, rounds int) ([]benchCase, error) {
	if env.Doc == nil {
		return nil, fmt.Errorf("bench: planning cases need a generated document")
	}
	db := whirlpool.FromDocument(env.Doc)
	q, err := whirlpool.ParseQuery(w.XPath)
	if err != nil {
		return nil, err
	}
	valued, err := whirlpool.ParseQuery(planValuedXPath)
	if err != nil {
		return nil, err
	}
	valuedAlt := whirlpool.MustParseQuery(planValuedAltXPath)
	scratch := whirlpool.Options{K: cfg.K, Relax: whirlpool.RelaxAll}

	synStart := time.Now()
	db.Synopsis()
	synBuild := time.Since(synStart)

	hot := db.NewPlanner(16)
	// Self-check before timing anything: the planned engine must answer
	// exactly like the scratch one, or the comparison is between two
	// different computations. It also warms hot, which plan-hot relies
	// on, and teaches warm both shapes' predicates, leaving valuedAlt's
	// plan in its one slot so that the alternation starts on a miss.
	warm, warmOps := db.NewPlanner(1), 0
	for _, c := range []struct {
		p *whirlpool.Planner
		q *whirlpool.Query
	}{{hot, q}, {hot, valued}, {warm, valued}, {warm, valuedAlt}} {
		if err := checkPlanned(db, c.p, c.q, scratch); err != nil {
			return nil, err
		}
	}
	// planned builds an engine for q from p's plan: a miss on a fresh
	// planner, a hit on the warm one.
	planned := func(p *whirlpool.Planner, q *whirlpool.Query, wantHit bool) error {
		plan, hit, err := p.PlanFor(q, whirlpool.RelaxAll, whirlpool.NormSparse)
		if err != nil {
			return err
		}
		if hit != wantHit {
			return fmt.Errorf("bench: planner cache hit=%v, want %v", hit, wantHit)
		}
		o := scratch
		o.Plan = plan
		_, err = db.NewEngine(q, o)
		return err
	}

	paths := []struct {
		name string
		op   func() error
	}{
		{"plan-cold", func() error {
			_, err := db.NewEngine(q, scratch)
			return err
		}},
		{"plan-synopsis", func() error { return planned(db.NewPlanner(1), q, false) }},
		{"plan-hot", func() error { return planned(hot, q, true) }},
		{"plan-valued", func() error { return planned(db.NewPlanner(1), valued, false) }},
		{"plan-valued-warm", func() error {
			warmOps++
			return planned(warm, []*whirlpool.Query{valuedAlt, valued}[warmOps%2], false)
		}},
	}
	gmp := runtime.GOMAXPROCS(0)
	cores := gmp
	if n := runtime.NumCPU(); cores > n {
		cores = n
	}
	var cases []benchCase
	var cold time.Duration
	for _, pc := range paths {
		per, err := measurePlanning(rounds, pc.op)
		if err != nil {
			return nil, err
		}
		if pc.name == "plan-cold" {
			cold = per
		}
		speedup := float64(cold) / float64(per)
		cases = append(cases, benchCase{
			Name:       pc.name,
			Shards:     1,
			NsPerOp:    per.Nanoseconds(),
			Speedup:    speedup,
			GoMaxProcs: gmp,
			Cores:      cores,
		})
		fmt.Fprintf(out, "bench: %-16s %12d ns/op  %.2fx  gmp=%d cores=%d\n",
			pc.name, per.Nanoseconds(), speedup, gmp, cores)
	}
	fmt.Fprintf(out, "bench: synopsis build %v (one-time, amortized over every plan)\n", synBuild)
	return cases, nil
}

// checkPlanned verifies that q evaluated from p's plan answers exactly
// like q evaluated from scratch.
// Scores compare exactly: the self-check demands bit-identical planned vs scratch scores.
func checkPlanned(db *whirlpool.Database, p *whirlpool.Planner, q *whirlpool.Query, scratch whirlpool.Options) error {
	plan, _, err := p.PlanFor(q, whirlpool.RelaxAll, whirlpool.NormSparse)
	if err != nil {
		return err
	}
	want, err := db.TopK(q, scratch)
	if err != nil {
		return err
	}
	planned := scratch
	planned.Plan = plan
	got, err := db.TopK(q, planned)
	if err != nil {
		return err
	}
	if len(want.Answers) != len(got.Answers) {
		return fmt.Errorf("bench: planned run of %s returned %d answers, scratch %d", q, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if want.Answers[i].Root != got.Answers[i].Root || want.Answers[i].Score != got.Answers[i].Score {
			return fmt.Errorf("bench: planned answer %d of %s diverges from scratch", i, q)
		}
	}
	return nil
}

// measurePlanning reports the best-of-rounds per-op wall time of fn.
// The first (untimed) call doubles as warm-up and calibration: cheap
// ops are batched so each timed round comfortably exceeds timer
// granularity, expensive ones run once per round.
func measurePlanning(rounds int, fn func() error) (time.Duration, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	once := time.Since(start)
	iters := 1
	if once > 0 && once < 20*time.Millisecond {
		iters = int(20 * time.Millisecond / once)
		if iters > 2000 {
			iters = 2000
		}
	}
	var best time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per := time.Since(start) / time.Duration(iters)
		if best == 0 || per < best {
			best = per
		}
	}
	return best, nil
}
