package pattern

import (
	"strings"
	"testing"
)

// FuzzParse checks that the query parser never panics, that accepted
// queries validate, and that String/Parse round-trips are stable.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"//item[./description/parlist]",
		"/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']",
		"//item[./mailbox/mail/text[./bold and ./keyword] and ./name]",
		"/a[./c[following-sibling::e]]",
		"/a[.//b = \"x\"]",
		"/a[",
		"//",
		"/a]extra",
		"/a[./b and]",
		"/a[following-sibling::x]",
		"/following-sibling::a",
		"/a[./c/following-sibling::e = 'x']",
		strings.Repeat("/a[", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query fails validation: %q: %v", input, err)
		}
		// Round trip: the rendered form must re-parse to an isomorphic
		// pattern whose rendering is a fixed point.
		s1 := q.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("rendered form does not re-parse: %q -> %q: %v", input, s1, err)
		}
		if s2 := q2.String(); s2 != s1 {
			t.Fatalf("String not a fixed point: %q -> %q -> %q", input, s1, s2)
		}
		if q2.Size() != q.Size() {
			t.Fatalf("round trip changed size: %q", input)
		}
	})
}
