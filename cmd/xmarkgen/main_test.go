package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func TestGenerateByItems(t *testing.T) {
	var buf bytes.Buffer
	if err := generate(&buf, 3, 25, 0); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	for _, n := range doc.Nodes {
		if n.Tag == "item" {
			items++
		}
	}
	if items != 25 {
		t.Fatalf("items = %d", items)
	}
}

func TestGenerateByBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := generate(&buf, 3, 0, 40_000); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 30_000 || buf.Len() > 60_000 {
		t.Fatalf("generated %d bytes for a 40k target", buf.Len())
	}
	if !strings.Contains(buf.String(), "<site>") {
		t.Fatal("missing site root")
	}
	if _, err := xmltree.Parse(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := generate(&a, 9, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := generate(&b, 9, 10, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different output")
	}
}
