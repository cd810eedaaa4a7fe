package pattern

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/dewey"
)

// Parse parses the XPath subset used throughout the paper into a tree
// pattern:
//
//	query      = ("/" | "//") step
//	step       = name [ "[" expr "]" ]
//	expr       = term { "and" term }
//	term       = relpath [ "=" "'" value "'" ]
//	relpath    = "." axisstep { axisstep }
//	axisstep   = ("/" | "//") name [ "[" expr "]" ]
//
// Each step of a relative path becomes a query node; nested predicates
// recurse. A trailing ='value' attaches a content predicate to the last
// step of the path. A step naming an XPath axis, following-sibling::e
// among them, is a parse error: tree patterns have pc and ad edges only.
func Parse(input string) (*Query, error) {
	p := &parser{input: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("pattern: parsing %q: %w", input, err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for tests, examples
// and package-level query tables.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	input string
	pos   int
}

func (p *parser) parseQuery() (*Query, error) {
	p.skipSpace()
	axis := dewey.Child
	if p.eat("//") {
		axis = dewey.Descendant
	} else if !p.eat("/") {
		return nil, p.errf("query must start with / or //")
	}
	tag, err := p.name()
	if err != nil {
		return nil, err
	}
	q := New(tag, axis)
	if err := p.parsePredicates(q, 0); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, p.errf("trailing input %q", p.input[p.pos:])
	}
	return q, nil
}

// parsePredicates parses an optional "[expr]" block attaching children to
// node ownerID.
func (p *parser) parsePredicates(q *Query, ownerID int) error {
	p.skipSpace()
	if !p.eat("[") {
		return nil
	}
	for {
		if err := p.parseTerm(q, ownerID); err != nil {
			return err
		}
		p.skipSpace()
		if p.eatWord("and") {
			continue
		}
		break
	}
	p.skipSpace()
	if !p.eat("]") {
		return p.errf("expected ']'")
	}
	return nil
}

// parseTerm parses one relative path (with nested predicates and optional
// value comparison) rooted at ownerID.
func (p *parser) parseTerm(q *Query, ownerID int) error {
	p.skipSpace()
	cur := ownerID
	first := true
	if !p.eat(".") {
		if _, err := p.name(); err != nil {
			return err // an axis step names its axis
		}
		return p.errf("expected relative path starting with '.'")
	}
	for {
		p.skipSpace()
		var axis dewey.Axis
		switch {
		case p.eat("//"):
			axis = dewey.Descendant
		case p.eat("/"):
			axis = dewey.Child
		default:
			if first {
				return p.errf("expected step after '.'")
			}
			return nil
		}
		tag, err := p.name()
		if err != nil {
			return err
		}
		id := q.Add(cur, tag, axis)
		if err := p.parsePredicates(q, id); err != nil {
			return err
		}
		p.skipSpace()
		if op, ok := p.valueOp(); ok {
			var val string
			var err error
			if op == "<" || op == "<=" || op == ">" || op == ">=" {
				val, err = p.numberLiteral()
			} else {
				val, err = p.stringLiteral()
			}
			if err != nil {
				return err
			}
			q.Nodes[id].Value = val
			q.Nodes[id].ValueOp = op
			return nil
		}
		cur = id
		first = false
	}
}

func (p *parser) rest() string { return p.input[p.pos:] }

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
}

// eat consumes the literal s if it is next (no space skipping for
// operator characters; callers skipSpace first where needed).
func (p *parser) eat(s string) bool {
	if strings.HasPrefix(p.input[p.pos:], s) {
		// Avoid eating "/" when "//" is next and s == "/" callers handle
		// order (they try "//" first), so plain prefix match is correct.
		p.pos += len(s)
		return true
	}
	return false
}

// eatWord consumes an identifier word (like "and") only when followed by
// a non-identifier character, so tags starting with "and..." still parse.
func (p *parser) eatWord(w string) bool {
	if !strings.HasPrefix(p.input[p.pos:], w) {
		return false
	}
	end := p.pos + len(w)
	if end < len(p.input) && isNameChar(rune(p.input[end])) {
		return false
	}
	p.pos = end
	return true
}

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '@'
}

func (p *parser) name() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) && isNameChar(rune(p.input[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected name")
	}
	if strings.HasPrefix(p.rest(), "::") {
		return "", p.errf("unsupported axis %s:: (tree patterns have only / and // edges)", p.input[start:p.pos])
	}
	return p.input[start:p.pos], nil
}

func (p *parser) stringLiteral() (string, error) {
	p.skipSpace()
	if !p.eat("'") && !p.eat("\"") {
		return "", p.errf("expected quoted value")
	}
	quote := p.input[p.pos-1]
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != quote {
		p.pos++
	}
	if p.pos == len(p.input) {
		return "", p.errf("unterminated string literal")
	}
	val := p.input[start:p.pos]
	p.pos++ // closing quote
	return val, nil
}

// valueOp consumes a content-predicate operator if one is next:
// =, !=, <=, >=, <, >, or the word "contains".
func (p *parser) valueOp() (string, bool) {
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		if p.eat(op) {
			return op, true
		}
	}
	if p.eatWord("contains") {
		return "contains", true
	}
	return "", false
}

// numberLiteral parses an unquoted decimal number.
func (p *parser) numberLiteral() (string, error) {
	p.skipSpace()
	start := p.pos
	if p.pos < len(p.input) && (p.input[p.pos] == '-' || p.input[p.pos] == '+') {
		p.pos++
	}
	digits := false
	for p.pos < len(p.input) && (p.input[p.pos] >= '0' && p.input[p.pos] <= '9' || p.input[p.pos] == '.') {
		if p.input[p.pos] != '.' {
			digits = true
		}
		p.pos++
	}
	if !digits {
		return "", p.errf("expected number")
	}
	return p.input[start:p.pos], nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}
