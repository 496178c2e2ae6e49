package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Result's JSON form is the one the result store keeps and the serve wire
// carries: an object of the fields under their Go names, in declaration
// order, each value as encoding/json writes it — so a finite result's
// bytes, and every store checksum over them, are what they were when
// encoding/json wrote the struct by itself — except that a float which is
// not finite, which no JSON number says (a confidence half-width no batch
// could estimate is +Inf), is the string "+Inf", "-Inf" or "NaN". Every
// value a Result can hold survives the round trip to the bit.
//
// The codec is written out because it runs for every stored, served and
// fetched point: a MarshalJSON/UnmarshalJSON pair that hands the struct
// back to encoding/json is validated twice each way, which the harness's
// served-warm workload measured at +20% CPU and +25% wall time. Decoding
// is one strict pass that checks the grammar as it reads, so the store's
// reader needs no json.Valid before it: about 2.2 us a result on one x86
// core, where the loose decoder it replaced took 4 us after json.Valid's
// own pass. Encoding costs 3 us a result more than encoding/json's own
// (the one validation json.Marshal makes of any MarshalJSON's output).

// resultKeys are Result's field names in declaration order. No two are
// equal under Unicode case folding, so at most one matches a member name.
var resultKeys = func() []string {
	t := reflect.TypeOf(Result{})
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i] = t.Field(i).Name
	}
	return keys
}()

// MarshalJSON implements json.Marshaler.
func (r Result) MarshalJSON() ([]byte, error) {
	v := reflect.ValueOf(&r).Elem()
	b := append(make([]byte, 0, 640), '{')
	for i, key := range resultKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), key...), '"', ':')
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			b = appendFloat(b, f.Float())
		case reflect.Int64:
			b = strconv.AppendInt(b, f.Int(), 10)
		case reflect.Bool:
			b = strconv.AppendBool(b, f.Bool())
		default:
			s, err := json.Marshal(f.Interface())
			if err != nil {
				return nil, err
			}
			b = append(b, s...)
		}
	}
	return append(b, '}'), nil
}

// appendFloat writes a finite x as encoding/json does (the shortest
// decimal that reads back as x; exponent form below 1e-6 and from 1e21,
// its exponent without a padding zero) and any other x as a string.
func appendFloat(b []byte, x float64) []byte {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return strconv.AppendQuote(b, strconv.FormatFloat(x, 'g', -1, 64))
	}
	if abs := math.Abs(x); abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, x, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, x, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler, MarshalJSON's inverse, in
// one strict pass over data, which need not have been checked: it reads
// exactly what json.Unmarshal would read into a plain struct of Result's
// fields (members in any order, keys matched exactly or else without
// regard to case, keys that name no field and null values skipped), and
// refuses the rest — bad syntax, anything after the object, a value of
// the wrong type — except that a float may also be exactly "+Inf", "-Inf"
// or "NaN" and that a member whose value is an object or an array, which
// Result's form has none of, is an error.
func (r *Result) UnmarshalJSON(data []byte) error {
	s := scanner{b: data}
	s.space()
	if s.literal("null") {
		return s.end()
	}
	if !s.skip('{') {
		return fmt.Errorf("core: Result JSON: want an object, not %.24q", s.b[s.i:])
	}
	v := reflect.ValueOf(r).Elem()
	if s.space(); s.skip('}') {
		return s.end()
	}
	for next := 0; ; {
		s.space()
		key, plainKey := s.str()
		if key == nil {
			return s.syntax("a member name")
		}
		if s.space(); !s.skip(':') {
			return s.syntax("':'")
		}
		s.space()
		val, plain := s.value()
		if val == nil {
			return s.syntax("a string, number, true, false or null")
		}
		i, ok := resultIndex(key, plainKey, next)
		if ok {
			next = i + 1
		}
		if ok && string(val) != "null" {
			if err := setField(v.Field(i), val, plain); err != nil {
				return fmt.Errorf("core: Result.%s: %w", resultKeys[i], err)
			}
		}
		if s.space(); s.skip('}') {
			return s.end()
		}
		if !s.skip(',') {
			return s.syntax("',' or '}'")
		}
	}
}

// resultIndex finds the field a member name names as encoding/json does:
// the one whose name equals it under Unicode case folding, the exact name
// being one. plain reports that the name token, quotes cut, is the name
// itself. The field at next is tried first: MarshalJSON writes them in
// order.
func resultIndex(tok []byte, plain bool, next int) (int, bool) {
	name := tok[1 : len(tok)-1]
	if next < len(resultKeys) && string(name) == resultKeys[next] {
		return next, true
	}
	if !plain {
		var s string
		if json.Unmarshal(tok, &s) != nil {
			return 0, false
		}
		name = []byte(s)
	}
	for i, key := range resultKeys {
		if strings.EqualFold(key, string(name)) {
			return i, true
		}
	}
	return 0, false
}

// setField stores one scanned value, not null, in a field of Result.
func setField(f reflect.Value, val []byte, plain bool) error {
	switch f.Kind() {
	case reflect.Float64:
		switch string(val) {
		case `"+Inf"`:
			f.SetFloat(math.Inf(1))
		case `"-Inf"`:
			f.SetFloat(math.Inf(-1))
		case `"NaN"`:
			f.SetFloat(math.NaN())
		default:
			x, err := strconv.ParseFloat(string(val), 64)
			if err != nil {
				return err
			}
			f.SetFloat(x)
		}
	case reflect.Int64:
		x, err := strconv.ParseInt(string(val), 10, 64)
		if err != nil {
			return err
		}
		f.SetInt(x)
	case reflect.Bool:
		if string(val) != "true" && string(val) != "false" {
			return fmt.Errorf("want true or false, not %.24s", val)
		}
		f.SetBool(val[0] == 't')
	default:
		if plain {
			f.SetString(string(val[1 : len(val)-1]))
			return nil
		}
		// Escapes and bytes outside UTF-8 are rare: encoding/json undoes
		// them, exactly as it would have.
		return json.Unmarshal(val, f.Addr().Interface())
	}
	return nil
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanner steps through one JSON text, checking the grammar as it goes.
type scanner struct {
	b []byte
	i int
}

// syntax reports that want is not what s holds at its offset.
func (s *scanner) syntax(want string) error {
	return fmt.Errorf("core: Result JSON: want %s at offset %d", want, s.i)
}

// end succeeds when nothing but space is left.
func (s *scanner) end() error {
	if s.space(); s.i < len(s.b) {
		return s.syntax("the end of the text")
	}
	return nil
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// skip steps over c if it is next.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal steps over lit if it is next.
func (s *scanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// value cuts the string, number or literal next in s; nil if there is
// none, an object or an array being none. plain reports a string whose
// bytes between the quotes are its value: no escape, valid UTF-8.
func (s *scanner) value() (tok []byte, plain bool) {
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
	case s.literal("true") || s.literal("false") || s.literal("null"):
		return s.b[at:s.i], false
	}
	return nil, false
}

// str cuts the string next in s, quotes included; nil if there is
// none or it is malformed. plain is as for value.
func (s *scanner) str() (tok []byte, plain bool) {
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
func (s *scanner) number() bool {
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		return false
	}
	if s.skip('.') && s.digits() == 0 {
		return false
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		return s.digits() > 0
	}
	return true
}

// digits steps over a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	at := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - at
}
