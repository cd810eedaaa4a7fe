package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestQueryVariantsShareOneEngine checks the engine cache keys on the
// canonical plan key, not the raw query text: whitespace and
// predicate-order variants of one query must hit the same cached
// engine.
func TestQueryVariantsShareOneEngine(t *testing.T) {
	s := testServer(t)
	variants := []string{
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text and ./description/parlist]",
		"//item[ ./description/parlist   and ./mailbox/mail/text ]",
	}
	for i, qs := range variants {
		w := post(t, s, "/query", queryRequest{Query: qs, K: 3})
		if w.Code != 200 {
			t.Fatalf("variant %d: %d %s", i, w.Code, w.Body.String())
		}
		var resp queryResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if resp.Cache != want {
			t.Fatalf("variant %d cache = %q, want %q", i, resp.Cache, want)
		}
	}
	if n := s.engines.Len(); n != 1 {
		t.Fatalf("engine cache holds %d entries for one canonical query, want 1", n)
	}
	ps := s.planner.Stats()
	if ps.Misses != 1 || ps.Hits != 2 {
		t.Fatalf("planner stats = %+v, want 1 miss and 2 hits", ps)
	}
	// Same shape at a different k shares the plan but not the engine.
	if w := post(t, s, "/query", queryRequest{Query: variants[0], K: 7}); w.Code != 200 {
		t.Fatalf("k=7: %d %s", w.Code, w.Body.String())
	}
	if n := s.engines.Len(); n != 2 {
		t.Fatalf("engine cache holds %d entries, want 2", n)
	}
	if ps := s.planner.Stats(); ps.Misses != 1 || ps.Hits != 3 {
		t.Fatalf("planner stats after k=7 = %+v, want 1 miss and 3 hits", ps)
	}
}

// TestPlanMetricsExposed checks /metrics carries the plan-cache
// counters and the planning-duration histogram after serving queries.
func TestPlanMetricsExposed(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 3}); w.Code != 200 {
			t.Fatalf("query %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := get(t, s, "/metrics?format=prometheus")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"whirlpoold_plan_cache_hits_total 2",
		"whirlpoold_plan_cache_misses_total 1",
		"whirlpoold_plan_cache_entries 1",
		"whirlpoold_plan_cache_evictions 0",
		"whirlpoold_planning_duration_us",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStatsMemoExposed: two plan misses sharing one valued predicate
// walk three posting lists between them, and /metrics and /stats say
// which statistics source answered.
func TestStatsMemoExposed(t *testing.T) {
	s := testServer(t)
	for _, quantity := range []string{"1", "2"} {
		q := "//item[./location = 'United States' and ./quantity = '" + quantity + "']"
		if w := post(t, s, "/query", queryRequest{Query: q, K: 3}); w.Code != 200 {
			t.Fatalf("%s: %d %s", q, w.Code, w.Body.String())
		}
	}
	body := get(t, s, "/metrics?format=prometheus").Body.String()
	for _, want := range []string{
		"whirlpoold_plan_cache_misses_total 2",
		"whirlpoold_stats_memo_hits_total 1",
		"whirlpoold_stats_memo_misses_total 3",
		"whirlpoold_stats_memo_entries 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	var stats struct {
		Cache struct {
			Predicates map[string]int64 `json:"predicates"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if p := stats.Cache.Predicates; p["hits"] != 1 || p["misses"] != 3 || p["len"] != 3 || p["cap"] == 0 || p["evictions"] != 0 {
		t.Fatalf("/stats cache.predicates = %v, want 1 hit, 3 misses, 3 entries", p)
	}
}

// TestShardedPlanServing checks plan-keyed serving works end to end on
// a sharded server too.
// Scores compare exactly: plan-keyed and fresh serving must return bit-identical scores.
func TestShardedPlanServing(t *testing.T) {
	s := testServerOpts(t, serverOptions{Shards: 4})
	a := "//item[./description/parlist and ./mailbox/mail/text]"
	b := "//item[./mailbox/mail/text and ./description/parlist]"
	var first queryResponse
	w := post(t, s, "/query", queryRequest{Query: a, K: 5})
	if w.Code != 200 {
		t.Fatalf("query a: %d %s", w.Code, w.Body.String())
	}
	if err := json.NewDecoder(w.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	var second queryResponse
	w = post(t, s, "/query", queryRequest{Query: b, K: 5})
	if w.Code != 200 {
		t.Fatalf("query b: %d %s", w.Code, w.Body.String())
	}
	if err := json.NewDecoder(w.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("variant cache = %q, want hit", second.Cache)
	}
	if len(first.Answers) != len(second.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(first.Answers), len(second.Answers))
	}
	for i := range first.Answers {
		if first.Answers[i].Dewey != second.Answers[i].Dewey || first.Answers[i].Score != second.Answers[i].Score {
			t.Fatalf("answer %d differs between variants: %+v vs %+v", i, first.Answers[i], second.Answers[i])
		}
	}
}
