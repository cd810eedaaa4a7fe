package shard

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func layoutOf(c *Corpus) (spine []int, units [][]int) {
	for _, s := range c.Spine() {
		spine = append(spine, s.Ord)
	}
	for _, p := range c.Parts() {
		ords := make([]int, len(p.Units))
		for i, u := range p.Units {
			ords[i] = u.Ord
		}
		units = append(units, ords)
	}
	return spine, units
}

// compareCorpora checks that a corpus rebuilt from a stored layout has
// the same partition — spine and per-part unit roots — and the same
// merged synopsis as the Split it was saved from. That both answer
// probes like the tree itself is index's conformance test's job.
func compareCorpora(t *testing.T, want, got *Corpus) {
	t.Helper()
	wantSpine, wantUnits := layoutOf(want)
	gotSpine, gotUnits := layoutOf(got)
	if !slices.Equal(wantSpine, gotSpine) || !slices.EqualFunc(wantUnits, gotUnits, slices.Equal[[]int]) {
		t.Fatalf("layout (%v, %v), want (%v, %v)", gotSpine, gotUnits, wantSpine, wantUnits)
	}
	if want.Synopsis().Fingerprint() != got.Synopsis().Fingerprint() {
		t.Fatal("synopsis fingerprints diverge")
	}
}

func TestFromLayoutMatchesSplit(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 11, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		want, err := Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		spine, units := layoutOf(want)
		got, err := FromLayout(doc, spine, units, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareCorpora(t, want, got)
	}
}

func TestFromLayoutSnapshotSources(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 11, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	spine, units := layoutOf(want)

	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Doc: doc}); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]index.Source, len(units))
	for i, ords := range units {
		ps, err := r.PartSource(ords)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = ps
	}
	got, err := FromLayout(r.Document(), spine, units, sources)
	if err != nil {
		t.Fatal(err)
	}
	compareCorpora(t, want, got)
}

func TestFromLayoutRejectsBadLayouts(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c/></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Split(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	spine, units := layoutOf(want)
	if _, err := FromLayout(doc, spine, units, nil); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := map[string]func() (spine []int, units [][]int){
		"no parts":       func() ([]int, [][]int) { return nil, nil },
		"out of range":   func() ([]int, [][]int) { return nil, [][]int{{99}} },
		"duplicate":      func() ([]int, [][]int) { return nil, [][]int{{0, 0}} },
		"partial cover":  func() ([]int, [][]int) { return nil, [][]int{{1}} },
		"orphan unit":    func() ([]int, [][]int) { return nil, [][]int{{1, 2, 3}} },
		"non-spine root": func() ([]int, [][]int) { return []int{1}, [][]int{{2, 3}} },
	}
	for name, fn := range cases {
		s, u := fn()
		if _, err := FromLayout(doc, s, u, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromLayout(doc, spine, units, []index.Source{nil, nil}); err == nil {
		t.Error("source count mismatch accepted")
	}
}
