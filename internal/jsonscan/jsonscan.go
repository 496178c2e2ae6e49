// Package jsonscan is the JSON tokenizer of the result path: a Scanner
// that steps through a JSON text once, checking the grammar as it goes.
// A decoder built on it reads exactly what encoding/json would read without
// encoding/json's separate validation pass over the text: core.Result's
// codec reads a stored or served result with it, and the serve client
// reads a whole results body with it, each result decoded in place.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a text with more objects and
// arrays open at once is an error there, so it is one here.
const maxDepth = 10000

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Scanner steps through one JSON text, checking the grammar as it goes.
type Scanner struct {
	b     []byte
	i     int
	depth int // objects and arrays open at i
}

// New returns a Scanner at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

// Syntax reports that want is not what s holds at its offset.
func (s *Scanner) Syntax(want string) error {
	return fmt.Errorf("want %s at offset %d", want, s.i)
}

// End succeeds when nothing but space is left.
func (s *Scanner) End() error {
	if s.Space(); s.i < len(s.b) {
		return s.Syntax("the end of the text")
	}
	return nil
}

// Space steps over any whitespace next in s.
func (s *Scanner) Space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// take steps over c if it is next.
func (s *Scanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// Literal steps over lit if it is next.
func (s *Scanner) Literal(lit string) bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// Scalar cuts the string, number or literal next in s; nil if there is
// none, an object or an array being none. plain reports a string whose
// bytes between the quotes are its value: no escape, valid UTF-8.
func (s *Scanner) Scalar() (tok []byte, plain bool) {
	at := s.i
	if s.i == len(s.b) {
		return nil, false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.str()
	case c == '-' || '0' <= c && c <= '9':
		if s.number() {
			return s.b[at:s.i], false
		}
	case s.Literal("true") || s.Literal("false") || s.Literal("null"):
		return s.b[at:s.i], false
	}
	return nil, false
}

// Value cuts the value next in s, of any kind, checked whole.
func (s *Scanner) Value() ([]byte, error) {
	at := s.i
	if err := s.skip(); err != nil {
		return nil, err
	}
	return s.b[at:s.i], nil
}

func (s *Scanner) skip() error {
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '{':
			return s.Object(nil, func(int) error { return s.skip() })
		case '[':
			return s.Array(s.skip)
		}
	}
	if tok, _ := s.Scalar(); tok == nil {
		return s.Syntax("a value")
	}
	return nil
}

// Object steps over the object next in s. For each member it calls member
// with s at the member's value, which member must step over, and with the
// index in names of the field the member's name selects as encoding/json
// selects a struct field: the name equal to it, or else the one equal
// under Unicode case folding, so no two names may be equal under folding;
// -1 if none. Names are tried in order from the one after the last
// matched, the order an encoder writes them in.
func (s *Scanner) Object(names []string, member func(i int) error) error {
	if !s.take('{') {
		return s.Syntax("an object")
	}
	if err := s.open(); err != nil {
		return err
	}
	if s.Space(); s.take('}') {
		s.depth--
		return nil
	}
	for next := 0; ; {
		s.Space()
		key, plain := s.str()
		if key == nil {
			return s.Syntax("a member name")
		}
		if s.Space(); !s.take(':') {
			return s.Syntax("':'")
		}
		s.Space()
		i := match(names, key, plain, next)
		if i >= 0 {
			next = i + 1
		}
		if err := member(i); err != nil {
			return err
		}
		if s.Space(); s.take('}') {
			s.depth--
			return nil
		}
		if !s.take(',') {
			return s.Syntax("',' or '}'")
		}
	}
}

// Array steps over the array next in s, calling elem with s at each
// element, which elem must step over.
func (s *Scanner) Array(elem func() error) error {
	if !s.take('[') {
		return s.Syntax("an array")
	}
	if err := s.open(); err != nil {
		return err
	}
	if s.Space(); s.take(']') {
		s.depth--
		return nil
	}
	for {
		s.Space()
		if err := elem(); err != nil {
			return err
		}
		if s.Space(); s.take(']') {
			s.depth--
			return nil
		}
		if !s.take(',') {
			return s.Syntax("',' or ']'")
		}
	}
}

// open counts an object or array opened, refusing one past maxDepth.
func (s *Scanner) open() error {
	if s.depth++; s.depth > maxDepth {
		return fmt.Errorf("more than %d objects and arrays nested at offset %d", maxDepth, s.i)
	}
	return nil
}

// match finds the index in names of the field a member name token
// selects, trying names[next] first; -1 if none.
func match(names []string, tok []byte, plain bool, next int) int {
	name := tok[1 : len(tok)-1]
	if next < len(names) && string(name) == names[next] {
		return next
	}
	if len(names) == 0 {
		return -1
	}
	unquoted := Unquote(tok, plain)
	for i, n := range names {
		if strings.EqualFold(n, unquoted) {
			return i
		}
	}
	return -1
}

// Unquote returns the value of a string token Scalar cut, plain as Scalar
// reported it.
func Unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	// Escapes and bytes outside UTF-8 are rare: encoding/json undoes them
	// in the one token, exactly as it would have in the whole text. A
	// token the scanner cut always decodes.
	var v string
	_ = json.Unmarshal(tok, &v)
	return v
}

// str cuts the string next in s, quotes included; nil if there is
// none or it is malformed. plain is as for Scalar.
func (s *Scanner) str() (tok []byte, plain bool) {
	b, i := s.b, s.i
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	plain, ascii := true, true
	for i++; i < len(b); i++ {
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			tok, s.i = b[s.i:i+1], i+1
			return tok, plain && (ascii || utf8.Valid(tok))
		case c == '\\':
			plain = false
			if i++; i == len(b) {
				return nil, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return nil, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return nil, false
					}
				}
				i += 4
			default:
				return nil, false
			}
		case c < ' ':
			return nil, false
		default:
			ascii = false
		}
	}
	return nil, false
}

// number steps over the JSON number next in s:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() bool {
	s.take('-')
	if !s.take('0') && s.digits() == 0 {
		return false
	}
	if s.take('.') && s.digits() == 0 {
		return false
	}
	if s.take('e') || s.take('E') {
		if !s.take('+') {
			s.take('-')
		}
		return s.digits() > 0
	}
	return true
}

// digits steps over a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	at := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - at
}
