package xmltree_test

import (
	"bytes"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// parsed keeps BenchmarkParse's result live.
var parsed *xmltree.Document

// BenchmarkParse parses XMark seed 1 at 1 MB: bytes per second and
// allocations per parse, the node slab's included.
func BenchmarkParse(b *testing.B) {
	var xml bytes.Buffer
	if _, err := xmark.WriteBytes(&xml, 1, 1<<20); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(xml.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if parsed, err = xmltree.Parse(bytes.NewReader(xml.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
