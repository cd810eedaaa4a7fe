package xmltree

import (
	"runtime"
	"strings"
	"testing"
)

// TestScannerCases pins what the scanner accepts and refuses, case by
// case, and holds each verdict to the encoding/xml reference.
func TestScannerCases(t *testing.T) {
	cases := []struct {
		in     string
		values []string // every node's value, in preorder; nil when refused
	}{
		{"<a>x\r\ny\rz</a>", []string{"x\ny\nz"}},
		{"<a v=\"x\r\ny\rz\"/>", []string{"", "x\ny\nz"}},
		{"<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xD800;</a>", []string{`<>&'"AB` + "�"}},
		{"<a v='&lt;&#9;&quot;'/>", []string{"", "<\t\""}},
		{"<a><![CDATA[<raw> & ]] ]]></a>", []string{"<raw> & ]]"}},
		{"<!DOCTYPE a [<!ENTITY e \"v\"><!-- > -->]><?pi x?><a><!-- c --><?q?>t</a>", []string{"t"}},
		{"<x:a xmlns:x=\"u\" x:b=\"1\"></x:a>", []string{"", "u", "1"}},
		{`<a b="1" b="2"/>`, []string{"", "1", "2"}},
		{"pre<a>in</a>post", []string{"in"}},
		{`<?xml version="1.0" encoding="utf-8"?><a/>`, []string{""}},
		{`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, nil},
		{"<a>&foo;</a>", nil},
		{"<a>&#0;</a>", nil},
		{"<x:a></y:a>", nil},
		{"<a b=c/>", nil},
		{"<a:b:c/>", nil},
		{"<a>\x01</a>", nil},
		{"<a>\xff</a>", nil},
		{"<a>]]></a>", nil},
	}
	for _, tc := range cases {
		_, refErr := referenceColumns(strings.NewReader(tc.in))
		if (refErr == nil) != (tc.values != nil) {
			t.Errorf("%q: the reference's verdict is %v", tc.in, refErr)
		}
		doc, err := ParseString(tc.in)
		if tc.values == nil {
			if err == nil {
				t.Errorf("%q: accepted, want refused", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		var got []string
		for _, n := range doc.Nodes {
			got = append(got, n.Value)
		}
		if strings.Join(got, "|") != strings.Join(tc.values, "|") {
			t.Errorf("%q: values %q, want %q", tc.in, got, tc.values)
		}
	}
}

// TestParseErrorLine checks that a parse error names the line of the
// offending byte, in both parsers, as the reference does: the projected
// one also through a one-byte window, which counts the lines it moves
// past.
func TestParseErrorLine(t *testing.T) {
	for _, in := range []string{
		"<a>\n<b/>\n<c>\x01</c></a>",
		"<a>\n<b/>\n<c>\xff</c></a>",
		"<a>\n<b/>\n<c>&bad;</c></a>",
		"<a>\n<b/>\n</c></a>",
		"<a>\n<b/>\n<c d=e/></a>",
		"<a>\n<b/>\n<c>]]></c></a>",
		"<a\n\nb=\"\x01\"/>",
	} {
		keepAll := func(string) bool { return true }
		_, refErr := referenceColumns(strings.NewReader(in))
		_, err := Parse(strings.NewReader(in))
		_, projErr := ParseProjected(strings.NewReader(in), keepAll)
		_, winErr := parseProjected(strings.NewReader(in), keepAll, 1)
		for _, e := range []error{refErr, err, projErr, winErr} {
			if e == nil || !strings.Contains(e.Error(), "line 3:") {
				t.Errorf("%q: error %v, want one on line 3", in, e)
			}
		}
	}
}

// TestNameTables holds the scanner's name character tables to the
// reference for every character of the Basic Multilingual Plane, as the
// first character of a name and as a later one.
func TestNameTables(t *testing.T) {
	for r := rune(0); r <= 0xFFFF; r++ {
		for _, in := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := parseColumns([]byte(in))
			if _, refErr := referenceColumns(strings.NewReader(in)); (err == nil) != (refErr == nil) {
				t.Errorf("%q (%U): scanner error %v, reference error %v", in, r, err, refErr)
			}
		}
	}
}

// TestParseProjectedStreams checks that a projected parse holds a window
// of its input, not the input: keeping nothing of a 2 MB document, half
// of it elements and half a run of comments and processing instructions
// with nothing between them, allocates a small fraction of it.
func TestParseProjectedStreams(t *testing.T) {
	var in strings.Builder
	in.WriteString("<site>")
	for in.Len() < 1<<20 {
		in.WriteString(`<item id="i"><name>gold ring</name><description>a plain ring of gold, ` +
			`set with one small stone &amp; engraved inside</description></item>` + "\n")
	}
	for in.Len() < 2<<20 {
		in.WriteString("<!-- a comment --><?pi data?>")
	}
	in.WriteString("</site>")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := ParseProjected(strings.NewReader(in.String()), KeepTags())
	runtime.ReadMemStats(&after)
	if err != nil || c.Len() != 0 {
		t.Fatalf("ParseProjected keeping nothing: %d nodes, error %v", c.Len(), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(in.Len()/8) {
		t.Errorf("ParseProjected allocated %d bytes on a %d-byte input, want at most an eighth of it", got, in.Len())
	}
}
