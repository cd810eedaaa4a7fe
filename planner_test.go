package whirlpool

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/score"
)

// TestPlannerCanonicalSharing checks predicate-order variants share a
// plan, that re-planning hits the cache and the planner counts each
// miss and hit, and that a plan is rejected for a structurally
// different query. Plan-driven answers are internal/core
// TestEngineAgreesWithNaive's planner-plan dimension.
func TestPlannerCanonicalSharing(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 5, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	planner := db.NewPlanner(8)
	a := "//item[./description/parlist and ./mailbox/mail/text]"
	b := "//item[./mailbox/mail/text and ./description/parlist]"
	planA, hit, err := planner.PlanFor(MustParseQuery(a), RelaxAll, NormSparse)
	if err != nil || hit {
		t.Fatalf("plan a: hit=%v err=%v", hit, err)
	}
	planB, hit, err := planner.PlanFor(MustParseQuery(b), RelaxAll, NormSparse)
	if err != nil || !hit {
		t.Fatalf("variant b missed the cache: hit=%v err=%v", hit, err)
	}
	if planA != planB {
		t.Fatal("order variants did not share one plan")
	}
	// Both variants evaluate through the shared plan.
	for _, qs := range []string{a, b} {
		if _, err := db.TopKString(qs, Options{K: 3, Relax: RelaxAll, Plan: planA}); err != nil {
			t.Fatalf("%s with shared plan: %v", qs, err)
		}
	}
	// Distinct normalizations and relaxations get distinct entries.
	if _, hit, err = planner.PlanFor(MustParseQuery(a), RelaxAll, NormDense); err != nil || hit {
		t.Fatalf("norm variant unexpectedly hit: %v %v", hit, err)
	}
	if _, hit, err = planner.PlanFor(MustParseQuery(a), RelaxNone, NormSparse); err != nil || hit {
		t.Fatalf("relax variant unexpectedly hit: %v %v", hit, err)
	}
	if again, hit, err := planner.PlanFor(MustParseQuery(a), RelaxAll, NormSparse); err != nil || !hit || again != planA {
		t.Fatalf("re-plan: hit=%v err=%v same=%v", hit, err, again == planA)
	}
	if st := planner.Stats(); st.Misses != 3 || st.Hits != 2 {
		t.Fatalf("planner stats = %+v, want 3 misses and 2 hits", st)
	}
	// A structurally different query must not ride on the plan.
	if _, err := db.TopK(MustParseQuery("//item[./payment]"), Options{K: 3, Relax: RelaxAll, Plan: planA}); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}

// TestPlannerLearnsPredicates: plans compiled in sequence on one
// planner — most of their valued predicates already in its memo — are,
// to the bit, the plans a fresh planner compiles for each shape alone:
// same routing statistics, same server order, same idfs. The shapes are
// whirlload's cold_shapes templates over the document's own constants.
// Scores compare exactly: a plan from learned statistics must equal one from walked statistics bit-for-bit.
func TestPlannerLearnsPredicates(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 5, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]string{}
	for _, n := range db.Document().Nodes {
		switch n.Tag {
		case "location", "quantity", "keyword", "from", "to":
			if vs := values[n.Tag]; len(vs) < 4 && !slices.Contains(vs, n.Value) {
				values[n.Tag] = append(vs, n.Value)
			}
		}
	}
	var shapes []string
	for i, v := range values["location"] {
		for _, q := range values["quantity"] {
			shapes = append(shapes, fmt.Sprintf("//item[./location = '%s' and ./quantity = '%s']", v, q),
				fmt.Sprintf("//item[./quantity = '%s' and ./mailbox/mail/text/keyword = '%s']", q, values["keyword"][i]),
				fmt.Sprintf("//item[./location = '%s' and .//keyword = '%s']", v, values["keyword"][i]))
		}
		shapes = append(shapes, fmt.Sprintf("//mail[./from = '%s' and ./to = '%s']", values["from"][i], values["to"][i]))
	}
	learned := db.NewPlanner(1) // every PlanFor below is a plan miss
	for i, xpath := range shapes {
		r := []Relaxation{RelaxNone, RelaxAll}[i%2]
		got, hit, err := learned.PlanFor(MustParseQuery(xpath), r, NormSparse)
		if err != nil || hit {
			t.Fatalf("%s: hit=%v err=%v", xpath, hit, err)
		}
		want, _, err := db.NewPlanner(1).PlanFor(MustParseQuery(xpath), r, NormSparse)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Fanout, want.Fanout) || !slices.Equal(got.SatisfyProb, want.SatisfyProb) || !slices.Equal(got.Order, want.Order) {
			t.Fatalf("%s: learned plan (%v, %v, %v), fresh (%v, %v, %v)", xpath,
				got.Fanout, got.SatisfyProb, got.Order, want.Fanout, want.SatisfyProb, want.Order)
		}
		for id := range got.Query.Nodes {
			ge, gr := got.Scorer.(*score.TFIDF).IDF(id)
			we, wr := want.Scorer.(*score.TFIDF).IDF(id)
			if ge != we || gr != wr {
				t.Fatalf("%s node %d: learned idf (%v, %v), fresh (%v, %v)", xpath, id, ge, gr, we, wr)
			}
		}
	}
	st := learned.Stats()
	if st.Misses != int64(len(shapes)) || st.Predicates.Walks != int64(st.Predicates.Len) || st.Predicates.Hits < st.Predicates.Walks {
		t.Fatalf("%d shapes planned: %+v, want every plan missed and most predicates remembered", len(shapes), st)
	}
}

// TestPlannerHitIsCached holds the plan cache to exact counts on a
// cold_shapes-style valued shape: a PlanFor hit returns the very plan
// the miss compiled, asks the predicate memo nothing, and allocates a
// pinned count (building the cache key) strictly below what a miss on a
// fresh planner allocates.
func TestPlannerHitIsCached(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 1, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("//item[./location = 'United States' and ./quantity = '1']")
	planner := db.NewPlanner(16)
	plan, hit, err := planner.PlanFor(q, RelaxAll, NormSparse)
	if err != nil || hit {
		t.Fatalf("first plan: hit=%v err=%v", hit, err)
	}
	before := planner.Stats().Predicates
	hitAllocs := testing.AllocsPerRun(100, func() {
		got, hit, err := planner.PlanFor(q, RelaxAll, NormSparse)
		if err != nil || !hit || got != plan {
			t.Fatalf("cached plan: hit=%v err=%v same=%v", hit, err, got == plan)
		}
	})
	if after := planner.Stats().Predicates; after != before {
		t.Fatalf("plan hits moved the predicate memo: %+v -> %+v", before, after)
	}
	missAllocs := testing.AllocsPerRun(10, func() {
		if _, hit, err := db.NewPlanner(16).PlanFor(q, RelaxAll, NormSparse); err != nil || hit {
			t.Fatalf("fresh planner: hit=%v err=%v", hit, err)
		}
	})
	if hitAllocs != 12 || hitAllocs >= missAllocs {
		t.Fatalf("a plan hit allocates %.0f objects and a miss %.0f, want 12 and fewer than the miss", hitAllocs, missAllocs)
	}
}
