package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro"
	"repro/internal/core"
	"repro/internal/xmltree"
)

// The /query response is appended into one byte buffer rather than built
// as a queryResponse and handed to encoding/json: no per-answer maps or
// strings, and no reflection. The bytes are exactly what
// json.NewEncoder(w).Encode(queryResponse{…}) writes — field order,
// omitempty, sorted map keys, float format, HTML-safe string escaping and
// the trailing newline — and encode_test.go holds the two to that.
// queryResponse and queryAnswer stay the wire types clients and tests
// decode into.

// bindingKey is one non-root query node's key in an answer's bindings
// object, pre-encoded as `"nodeID:tag":`.
type bindingKey struct {
	id   int
	json []byte
}

// bindingKeys returns q's non-root nodes in the order encoding/json
// sorts their "nodeID:tag" map keys: by string, so "10:x" precedes "2:y".
func bindingKeys(q *whirlpool.Query) []bindingKey {
	names := make([]string, len(q.Nodes))
	keys := make([]bindingKey, 0, len(q.Nodes))
	for id := 1; id < len(q.Nodes); id++ {
		names[id] = strconv.Itoa(id) + ":" + q.Nodes[id].Tag
		keys = append(keys, bindingKey{id: id, json: append(appendJSONString(nil, names[id]), ':')})
	}
	slices.SortFunc(keys, func(a, b bindingKey) int { return strings.Compare(names[a.id], names[b.id]) })
	return keys
}

// appendResponse appends res as the queryResponse encoding/json would
// write for it, rendering each answer's path and Dewey IDs from doc, the
// columns its ordinals index. Scores and timings are finite, so every
// float encodes.
func (e *engineEntry) appendResponse(dst []byte, doc *xmltree.Columns, res *core.Result, cache string) []byte {
	dst = append(dst, `{"answers":[`...)
	for i, a := range res.Answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"score":`...)
		dst = appendJSONFloat(dst, a.Score)
		dst = append(dst, `,"path":"`...)
		dst = appendPath(dst, doc, a.Root)
		dst = append(dst, `","dewey":"`...)
		dst = doc.AppendDewey(dst, a.Root) // digits and dots: nothing to escape
		dst = append(dst, '"')
		sep := `,"bindings":{`
		for _, k := range e.bindings {
			b := a.Bindings[k.id]
			if b < 0 {
				continue
			}
			dst = append(append(dst, sep...), k.json...)
			dst = append(doc.AppendDewey(append(dst, '"'), b), '"')
			sep = ","
		}
		if sep == "," {
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	st := res.Stats
	dst = strconv.AppendInt(append(dst, `],"server_ops":`...), st.ServerOps, 10)
	dst = strconv.AppendInt(append(dst, `,"matches_created":`...), st.MatchesCreated, 10)
	dst = strconv.AppendInt(append(dst, `,"pruned":`...), st.Pruned, 10)
	if st.PrunedRemote != 0 {
		dst = strconv.AppendInt(append(dst, `,"pruned_remote":`...), st.PrunedRemote, 10)
	}
	dst = appendJSONFloat(append(dst, `,"took_ms":`...), float64(st.Duration.Microseconds())/1000)
	dst = appendJSONString(append(dst, `,"cache":`...), cache)
	return append(dst, "}\n"...)
}

// appendPath appends doc.Path(ord), escaped. Escaping tag by tag equals
// escaping the joined path: the '/' between tags is ASCII, so no
// multi-byte sequence spans two tags.
func appendPath(dst []byte, doc *xmltree.Columns, ord int32) []byte {
	if p := doc.Parent(ord); p >= 0 {
		dst = append(appendPath(dst, doc, p), '/')
	}
	return appendJSONChars(dst, doc.Tag(ord))
}

// appendJSONFloat appends f in encoding/json's float64 format: ES6
// number-to-string, %f-like except below 1e-6 and from 1e21, where the
// exponent form drops a leading zero from a negative exponent.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a JSON string the way encoding/json's
// default (HTML-escaping) encoder writes it.
func appendJSONString(dst []byte, s string) []byte {
	return append(appendJSONChars(append(dst, '"'), s), '"')
}

// appendJSONChars appends s's escaped characters without the quotes:
// control characters, '"', '\\' and the HTML-sensitive '<', '>', '&'
// escaped, each invalid UTF-8 byte replaced by \ufffd, and U+2028 and
// U+2029 escaped for JSONP.
func appendJSONChars(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// responseBufs recycles /query response buffers. One grown past
// maxPooledResponse by a large k is dropped rather than kept pinned.
var responseBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledResponse = 64 << 10
