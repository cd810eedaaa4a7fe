package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	whirlpool "repro"
)

func writeCatalog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cat.xml")
	xml := `<book><title>wodehouse</title><info><publisher><name>psmith</name></publisher></info></book>
<book><title>wodehouse</title></book>`
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllOptionCombos(t *testing.T) {
	path := writeCatalog(t)
	query := "/book[./title = 'wodehouse']"
	for _, alg := range []string{"whirlpool-s", "whirlpool-m", "lockstep", "lockstep-noprun"} {
		if err := run(path, query, 2, alg, "min-alive", "max-final", "sparse", false, true, true, ""); err != nil {
			t.Fatalf("algorithm %s: %v", alg, err)
		}
	}
	for _, routing := range []string{"min-alive", "max-score", "min-score", "static"} {
		if err := run(path, query, 1, "whirlpool-s", routing, "max-final", "sparse", false, false, false, ""); err != nil {
			t.Fatalf("routing %s: %v", routing, err)
		}
	}
	for _, queue := range []string{"max-final", "max-next", "current", "fifo"} {
		if err := run(path, query, 1, "whirlpool-s", "min-alive", queue, "sparse", false, false, false, ""); err != nil {
			t.Fatalf("queue %s: %v", queue, err)
		}
	}
	for _, norm := range []string{"sparse", "dense", "raw"} {
		if err := run(path, query, 1, "whirlpool-s", "min-alive", "max-final", norm, true, false, false, ""); err != nil {
			t.Fatalf("norm %s: %v", norm, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeCatalog(t)
	query := "/book[./title]"
	cases := []struct {
		name string
		err  func() error
	}{
		{"missing file", func() error {
			return run(filepath.Join(t.TempDir(), "none.xml"), query, 1, "whirlpool-s", "min-alive", "max-final", "sparse", false, false, false, "")
		}},
		{"bad query", func() error {
			return run(path, "not a query", 1, "whirlpool-s", "min-alive", "max-final", "sparse", false, false, false, "")
		}},
		{"bad algorithm", func() error {
			return run(path, query, 1, "bogus", "min-alive", "max-final", "sparse", false, false, false, "")
		}},
		{"bad routing", func() error {
			return run(path, query, 1, "whirlpool-s", "bogus", "max-final", "sparse", false, false, false, "")
		}},
		{"bad queue", func() error {
			return run(path, query, 1, "whirlpool-s", "min-alive", "bogus", "sparse", false, false, false, "")
		}},
		{"bad norm", func() error {
			return run(path, query, 1, "whirlpool-s", "min-alive", "max-final", "bogus", false, false, false, "")
		}},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunSnapshotFile(t *testing.T) {
	xmlPath := writeCatalog(t)
	db, err := whirlpool.LoadFile(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "cat.wpxs")
	if err := db.SaveSnapshot(snap, whirlpool.SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := run(snap, "/book[./title = 'wodehouse']", 2, "whirlpool-s", "min-alive", "max-final", "sparse", false, true, false, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunLegacyV1File checks -file on a retired v1 .wpx file reports the
// format and how to regenerate it rather than an XML syntax error.
func TestRunLegacyV1File(t *testing.T) {
	old := filepath.Join(t.TempDir(), "cat.wpx")
	if err := os.WriteFile(old, []byte("WPX1\x03\x01\x04book"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(old, "/book", 1, "whirlpool-s", "min-alive", "max-final", "sparse", false, false, false, "")
	if err == nil || !strings.Contains(err.Error(), "retired v1 .wpx format") || !strings.Contains(err.Error(), "-save-snapshot") {
		t.Fatalf("v1 file: error %v does not name the retired format and its regeneration", err)
	}
}
