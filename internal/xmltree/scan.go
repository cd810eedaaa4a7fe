package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode/utf8"
)

// token is what scanner.next reports.
type token uint8

const (
	tokEOF   token = iota // the input is consumed and every element closed
	tokStart              // a start tag: name holds the element's local name
	tokAttr               // an attribute of the element just started: name and text
	tokEnd                // the innermost open element ends
	tokText               // text holds decoded character data, a CDATA section's included
	tokSkip               // over a window: a comment, processing instruction or directive was skipped
)

// scanner is a strict XML tokenizer over a document held in memory, or
// over the part of one a window holds. It
// accepts what encoding/xml's strict Decoder accepts with no charset
// reader and no custom entities, and nothing else:
//
//   - CR and CRLF become LF in text and attribute values, the five
//     predefined entities and character references are decoded, and
//     every decoded character must be valid UTF-8 in XML's Char range;
//   - CDATA content is text; comments, processing instructions and
//     directives (<!DOCTYPE …>, an internal subset included) are checked
//     and skipped, and an <?xml …?> declaration may name only version
//     1.0 and UTF-8;
//   - a name carries at most one colon, and only the part after it (the
//     local name) is reported; end tags match their start tags byte for
//     byte, prefix included;
//   - text outside every element is checked like any other and reported.
//
// A token's name and text are slices of the input or of one scratch
// buffer, valid until the next call: a token allocates nothing.
type scanner struct {
	in   []byte
	pos  int
	name []byte // tokStart, tokAttr: the local name
	text []byte // tokAttr, tokText: the decoded characters
	buf  []byte // decoding scratch for text that references or CRs rewrite
	// names holds the open elements' qualified names end to end, and
	// ends where each one ends in names: copies, as a window moves on.
	names []byte
	ends  []int
	inTag bool // between a start tag's name and its closing '>'
	empty bool // the start tag just read ended in "/>": its end comes next
	more  bool // the input goes on past in: a token cut by its end is errMore
	line  int  // the lines of the input before in
}

// errMore is what a scanner whose input goes on past in reports for a
// token that in's end cuts: its caller reads on and asks again.
var errMore = errors.New("xmltree: token runs past the window")

// decoding modes: what decode does besides turning CR and CRLF into LF
// and checking characters.
const (
	modeCDATA = iota // nothing more
	modeAttr         // decode references
	modeText         // decode references; refuse "]]>"
)

// syntaxError is a parse failure and the line it was found on.
type syntaxError struct {
	line int
	msg  string
}

func (e *syntaxError) Error() string {
	return "XML syntax error on line " + strconv.Itoa(e.line) + ": " + e.msg
}

// fail reports msg at byte offset at. The line is counted here, so a
// parse that succeeds never counts one.
func (s *scanner) fail(at int, msg string) error {
	return &syntaxError{line: 1 + s.line + bytes.Count(s.in[:at], []byte{'\n'}), msg: msg}
}

// eof and eofIn report the end of in, reached mid-token: errMore when
// the input goes on, else the syntax error msg.
func (s *scanner) eof() error { return s.eofIn("unexpected EOF") }

func (s *scanner) eofIn(msg string) error {
	if s.more {
		return errMore
	}
	return s.fail(len(s.in), msg)
}

// top returns the innermost open element's qualified name and where it
// starts in names.
func (s *scanner) top() ([]byte, int) {
	n, lo := len(s.ends), 0
	if n > 1 {
		lo = s.ends[n-2]
	}
	return s.names[lo:s.ends[n-1]], lo
}

// pop closes the innermost open element.
func (s *scanner) pop() {
	_, lo := s.top()
	s.names, s.ends = s.names[:lo], s.ends[:len(s.ends)-1]
}

// next returns the next token.
func (s *scanner) next() (token, error) {
	if s.inTag {
		return s.attr()
	}
	if s.empty {
		s.empty = false
		s.pop()
		return tokEnd, nil
	}
	for s.pos < len(s.in) {
		if s.in[s.pos] != '<' {
			return tokText, s.chars()
		}
		if s.pos+1 == len(s.in) {
			return 0, s.eof()
		}
		switch s.in[s.pos+1] {
		case '/':
			return tokEnd, s.endTag()
		case '?':
			if err := s.procInst(); err != nil {
				return 0, err
			}
		case '!':
			cdata, err := s.bang()
			if err != nil {
				return 0, err
			}
			if cdata {
				return tokText, nil
			}
		default:
			s.pos++
			lo, hi, err := s.qname("expected element name after <")
			if err != nil {
				return 0, err
			}
			s.names = append(s.names, s.in[lo:hi]...)
			s.ends = append(s.ends, len(s.names))
			s.inTag = true
			return tokStart, nil
		}
		// Markup was skipped. A window may drop it, rather than hold a
		// run of it as one token.
		if s.more {
			return tokSkip, nil
		}
	}
	if len(s.ends) > 0 || s.more {
		return 0, s.eof()
	}
	return tokEOF, nil
}

// attr reads the next attribute of the open start tag, or its end.
func (s *scanner) attr() (token, error) {
	s.space()
	if s.pos == len(s.in) {
		return 0, s.eof()
	}
	switch s.in[s.pos] {
	case '/':
		if s.pos+1 == len(s.in) {
			return 0, s.eof()
		}
		if s.in[s.pos+1] != '>' {
			return 0, s.fail(s.pos, "expected /> in element")
		}
		s.pos += 2
		s.inTag, s.empty = false, true
		return s.next()
	case '>':
		s.pos++
		s.inTag = false
		return s.next()
	}
	if _, _, err := s.qname("expected attribute name in element"); err != nil {
		return 0, err
	}
	s.space()
	if s.pos == len(s.in) {
		return 0, s.eof()
	}
	if s.in[s.pos] != '=' {
		return 0, s.fail(s.pos, "attribute name without = in element")
	}
	s.pos++
	s.space()
	if s.pos == len(s.in) {
		return 0, s.eof()
	}
	q := s.in[s.pos]
	if q != '"' && q != '\'' {
		return 0, s.fail(s.pos, "unquoted or missing attribute value in element")
	}
	s.pos++
	end := bytes.IndexByte(s.in[s.pos:], q)
	if end < 0 {
		end = len(s.in) - s.pos
	}
	if lt := bytes.IndexByte(s.in[s.pos:s.pos+end], '<'); lt >= 0 {
		return 0, s.fail(s.pos+lt, "unescaped < inside quoted string")
	}
	if s.pos+end == len(s.in) {
		return 0, s.eof()
	}
	raw := s.in[s.pos : s.pos+end]
	s.pos += end + 1
	return tokAttr, s.decode(raw, s.pos-end-1, modeAttr)
}

// endTag reads "</name>" and closes the innermost open element, which
// must carry the same qualified name.
func (s *scanner) endTag() error {
	s.pos += 2
	// The name is only compared: one equal to its start tag's is valid.
	n := len(s.ends)
	if n > 0 {
		open, _ := s.top()
		if end := s.pos + len(open); end < len(s.in) && s.in[end] == '>' && bytes.Equal(s.in[s.pos:end], open) {
			s.pos = end + 1
			s.pop()
			return nil
		}
	}
	lo := s.pos
	hi, _ := nameEnd(s.in, lo)
	s.pos = hi
	switch {
	case hi == len(s.in):
		return s.eof()
	case hi == lo:
		return s.fail(lo, "expected element name after </")
	}
	s.space()
	if s.pos == len(s.in) {
		return s.eof()
	}
	if s.in[s.pos] != '>' {
		return s.fail(s.pos, "invalid characters between </"+string(s.in[lo:hi])+" and >")
	}
	s.pos++
	if n == 0 {
		return s.fail(lo, "unexpected end element </"+string(s.in[lo:hi])+">")
	}
	if open, _ := s.top(); !bytes.Equal(open, s.in[lo:hi]) {
		return s.fail(lo, "element <"+string(open)+"> closed by </"+string(s.in[lo:hi])+">")
	}
	s.pop()
	return nil
}

// procInst checks and skips "<?target …?>". An xml declaration may name
// only version 1.0 and the UTF-8 encoding.
func (s *scanner) procInst() error {
	start := s.pos
	s.pos += 2
	lo, hi, _, err := s.xmlName("expected target name after <?")
	if err != nil {
		return err
	}
	s.space()
	end := bytes.Index(s.in[s.pos:], []byte("?>"))
	if end < 0 {
		return s.eof()
	}
	data := s.in[s.pos : s.pos+end]
	s.pos += end + 2
	if string(s.in[lo:hi]) != "xml" {
		return nil
	}
	if v := procInstParam("version=", data); len(v) > 0 && string(v) != "1.0" {
		return s.fail(start, fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
	}
	if e := procInstParam("encoding=", data); len(e) > 0 && !bytes.EqualFold(e, []byte("utf-8")) {
		return s.fail(start, fmt.Sprintf("encoding %q declared; only UTF-8 is read", e))
	}
	return nil
}

// procInstParam returns the quoted value after param (which ends in
// '=') in a processing instruction's data, found as encoding/xml finds
// it: the first occurrence followed by a quote.
func procInstParam(param string, data []byte) []byte {
	i := 0
	var sep byte
	for i < len(data) {
		sub := data[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || len(param)+k >= len(sub) {
			return nil
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(data[i:], sep)
	if j < 0 {
		return nil
	}
	return data[i : i+j]
}

// bang reads what follows "<!": a comment or a directive, which it
// skips, or a CDATA section, whose content it decodes into text.
func (s *scanner) bang() (cdata bool, err error) {
	start := s.pos
	s.pos += 2
	if s.pos == len(s.in) {
		return false, s.eof()
	}
	switch s.in[s.pos] {
	case '-':
		if s.pos+1 == len(s.in) {
			return false, s.eof()
		}
		if s.in[s.pos+1] != '-' {
			return false, s.fail(start, "invalid sequence <!- not part of <!--")
		}
		s.pos += 2
		end := bytes.Index(s.in[s.pos:], []byte("--"))
		if end < 0 || s.pos+end+2 == len(s.in) {
			return false, s.eof()
		}
		s.pos += end + 2
		if s.in[s.pos] != '>' {
			return false, s.fail(s.pos, `invalid sequence "--" not allowed in comments`)
		}
		s.pos++
		return false, nil
	case '[':
		s.pos++
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			if s.pos+i == len(s.in) {
				return false, s.eof()
			}
			if s.in[s.pos+i] != open[i] {
				return false, s.fail(start, "invalid <![ sequence")
			}
		}
		s.pos += len(open)
		end := bytes.Index(s.in[s.pos:], []byte("]]>"))
		if end < 0 {
			return false, s.eofIn("unexpected EOF in CDATA section")
		}
		raw := s.in[s.pos : s.pos+end]
		s.pos += end + 3
		return true, s.decode(raw, s.pos-end-3, modeCDATA)
	}
	return false, s.directive()
}

// directive skips a directive such as <!DOCTYPE …> whose first byte is
// at s.pos, the way encoding/xml delimits one: it ends at the first '>'
// outside quotes that closes no nested '<', and a comment inside it ends
// at "-->".
func (s *scanner) directive() error {
	in, i := s.in, s.pos+1
	var quote byte
	depth := 0
	for {
		if i == len(in) {
			return s.eof()
		}
		b := in[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			break
		}
		// A '<' that opens no comment nests, and the byte that showed it
		// is handled in turn: the loop runs again for it.
		for handle := true; handle; {
			handle = false
			switch {
			case b == quote:
				quote = 0
			case quote != 0:
			case b == '\'' || b == '"':
				quote = b
			case b == '>':
				depth--
			case b == '<':
				const open = "!--"
				n := 0
				for ; n < len(open); n++ {
					if i == len(in) {
						return s.eof()
					}
					b = in[i]
					i++
					if b != open[n] {
						break
					}
				}
				if n < len(open) {
					depth++
					handle = true
					continue
				}
				end := bytes.Index(in[i:], []byte("-->"))
				if end < 0 {
					return s.eof()
				}
				i += end + 3
			}
		}
	}
	s.pos = i
	return nil
}

// chars decodes the character data from s.pos up to the next '<'.
func (s *scanner) chars() error {
	lo := s.pos
	end := bytes.IndexByte(s.in[lo:], '<')
	if end < 0 {
		if s.more {
			return errMore // the rest of the text is still to come
		}
		end = len(s.in) - lo
	}
	s.pos += end
	return s.decode(s.in[lo:s.pos], lo, modeText)
}

// decode checks raw, which starts at offset at, and sets text to its
// characters: raw itself when nothing is rewritten, else the scratch
// buffer holding CR and CRLF as LF and, outside CDATA, references
// replaced by what they name.
func (s *scanner) decode(raw []byte, at, mode int) error {
	i := 0
	for i < len(raw) && plain[raw[i]] {
		i++
	}
	if i == len(raw) {
		s.text = raw
		return nil
	}
	out := s.buf[:0]
	rewritten := false // out holds raw[:i] decoded, else raw[:i] is unchanged
	keep := func() {
		if !rewritten {
			out, rewritten = append(out, raw[:i]...), true
		}
	}
	for i < len(raw) {
		b := raw[i]
		switch {
		case plain[b]:
			if rewritten {
				out = append(out, b)
			}
			i++
		case b == '\r':
			keep()
			out = append(out, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case b == '&' && mode != modeCDATA:
			r, n := reference(raw[i:])
			if n == 0 {
				return s.fail(at+i, "invalid character entity "+string(raw[i:i+entityEnd(raw[i:])]))
			}
			if !isChar(r) {
				return s.fail(at+i, fmt.Sprintf("illegal character code %U", r))
			}
			keep()
			out = utf8.AppendRune(out, r)
			i += n
		case b == '&' || b == ']':
			if b == ']' && mode == modeText && bytes.HasPrefix(raw[i:], []byte("]]>")) {
				return s.fail(at+i, "unescaped ]]> not in CDATA section")
			}
			if rewritten {
				out = append(out, b)
			}
			i++
		case b < utf8.RuneSelf:
			return s.fail(at+i, fmt.Sprintf("illegal character code %U", rune(b)))
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return s.fail(at+i, "invalid UTF-8")
			}
			if !isChar(r) {
				return s.fail(at+i, fmt.Sprintf("illegal character code %U", r))
			}
			if rewritten {
				out = append(out, raw[i:i+n]...)
			}
			i += n
		}
	}
	if rewritten {
		s.text, s.buf = out, out
	} else {
		s.text = raw
	}
	return nil
}

// entities are the predefined entity references, name and ';'.
var entities = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference decodes the reference at the start of raw, which begins
// with '&': one of the five predefined entities, &#digits; or
// &#xhexdigits;. It returns the rune named and the reference's length,
// or a length of 0 when raw starts with no such reference. A character
// reference to a surrogate names U+FFFD, as a conversion would.
func reference(raw []byte) (rune, int) {
	if len(raw) < 2 || raw[1] != '#' {
		for _, e := range entities {
			if bytes.HasPrefix(raw[1:], []byte(e.ref)) {
				return e.r, 1 + len(e.ref)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if i < len(raw) && raw[i] == 'x' {
		i, base = 3, 16
	}
	start, v := i, rune(0)
	for ; i < len(raw); i++ {
		d := rune(-1)
		switch c := raw[i]; {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d < 0 {
			break
		}
		if v <= utf8.MaxRune {
			v = v*base + d
		}
	}
	if i == start || i == len(raw) || raw[i] != ';' || v > utf8.MaxRune {
		return 0, 0
	}
	if 0xD800 <= v && v <= 0xDFFF {
		v = utf8.RuneError
	}
	return v, i + 1
}

// entityEnd returns the length of what an invalid reference at the start
// of raw shows in its error: through its ';', or up to 16 bytes.
func entityEnd(raw []byte) int {
	n := min(len(raw), 16)
	if i := bytes.IndexByte(raw[:n], ';'); i >= 0 {
		return i + 1
	}
	return n
}

// isChar reports whether r is in XML's Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.in) {
		switch s.in[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// Byte classes of names.
const (
	nameByte  = 1 << iota // gathered into a name
	nameHigh              // part of a multi-byte character, which isName checks
	nameColon             // a prefix separator
)

// nameClass holds each byte's name classes, nameStart7 marks the ASCII
// characters a name may begin with, and plain marks the bytes decode
// copies without a second look.
var nameClass, nameStart7, plain = func() (class [256]uint8, start, plain [256]bool) {
	for c := 0; c < 256; c++ {
		start[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
		switch {
		case start[c] || '0' <= c && c <= '9' || c == '.' || c == '-':
			class[c] = nameByte
		case c >= utf8.RuneSelf:
			class[c] = nameByte | nameHigh
		}
		if c == ':' {
			class[c] |= nameColon
		}
		plain[c] = c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != ']' || c == '\n' || c == '\t'
	}
	return class, start, plain
}()

// nameEnd returns the end of the name bytes from i on and the union of
// their classes.
func nameEnd(in []byte, i int) (int, uint8) {
	var class uint8
	for ; i < len(in); i++ {
		c := nameClass[in[i]]
		if c == 0 {
			break
		}
		class |= c
	}
	return i, class
}

// xmlName reads the name at s.pos and returns its span and classes;
// missing names the error when no name starts there.
func (s *scanner) xmlName(missing string) (lo, hi int, class uint8, err error) {
	lo = s.pos
	hi, class = nameEnd(s.in, lo)
	s.pos = hi
	switch {
	case hi == len(s.in):
		return 0, 0, 0, s.eof()
	case hi == lo:
		return 0, 0, 0, s.fail(lo, missing)
	case class&nameHigh == 0 && nameStart7[s.in[lo]], class&nameHigh != 0 && isName(s.in[lo:hi]):
		return lo, hi, class, nil
	}
	return 0, 0, 0, s.fail(lo, "invalid XML name: "+string(s.in[lo:hi]))
}

// qname reads an element or attribute name, which may hold one colon,
// and sets name to its local part: what follows the colon when a
// non-empty prefix and local part surround it, else the whole.
func (s *scanner) qname(missing string) (lo, hi int, err error) {
	lo, hi, class, err := s.xmlName(missing)
	if err != nil {
		return 0, 0, err
	}
	q := s.in[lo:hi]
	s.name = q
	if class&nameColon != 0 {
		i := bytes.IndexByte(q, ':')
		if bytes.IndexByte(q[i+1:], ':') >= 0 {
			return 0, 0, s.fail(lo, "more than one colon in name "+string(q))
		}
		if i > 0 && i < len(q)-1 {
			s.name = q[i+1:]
		}
	}
	return lo, hi, nil
}

// readInput reads all of r into one buffer. For an *os.File or a reader
// that reports its Len the buffer is allocated at its exact size.
func readInput(r io.Reader) ([]byte, error) {
	n := -1
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			if off, err := v.Seek(0, io.SeekCurrent); err == nil && fi.Size() >= off {
				n = int(fi.Size() - off)
			}
		}
	case interface{ Len() int }:
		n = v.Len()
	}
	if n < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, n)
	k, err := io.ReadFull(r, buf)
	switch {
	case err == io.ErrUnexpectedEOF:
		return buf[:k], nil
	case err != nil && err != io.EOF:
		return nil, err
	}
	// The size was read before the bytes; whatever followed it is read too.
	rest, err := io.ReadAll(r)
	return append(buf, rest...), err
}

// window feeds a scanner from a reader a window of bytes at a time, so
// that a parse holds the token it reads rather than the whole input.
type window struct {
	scanner
	r   io.Reader
	buf []byte
}

func newWindow(r io.Reader, size int) *window {
	return &window{scanner: scanner{more: true}, r: r, buf: make([]byte, size)}
}

// next returns the next token. When the window ends mid-token, it reads
// on and scans the token again from its start.
func (w *window) next() (token, error) {
	for {
		at := w.scanner
		tok, err := w.scanner.next()
		if !errors.Is(err, errMore) {
			return tok, err
		}
		w.scanner = at
		if err := w.fill(); err != nil {
			return 0, err
		}
	}
}

// fill drops the bytes scanned, doubles the window when what is left
// fills more than half of it, and reads on to the window's end.
func (w *window) fill() error {
	s := &w.scanner
	s.line += bytes.Count(s.in[:s.pos], []byte{'\n'})
	rest := s.in[s.pos:]
	if 2*len(rest) > len(w.buf) {
		w.buf = make([]byte, 2*len(w.buf))
	}
	n := copy(w.buf, rest)
	k, err := io.ReadFull(w.r, w.buf[n:])
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		s.more = false
	default:
		return err
	}
	s.in, s.pos = w.buf[:n+k], 0
	return nil
}
