package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"lapses/internal/jsonscan"
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
// is one strict pass on internal/jsonscan that checks the grammar as it
// reads, so the store's reader needs no json.Valid before it, and the
// serve client decodes each result of a results body in place with
// DecodeJSON: about 2.2 us a result on one x86
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
	s := jsonscan.New(data)
	s.Space()
	if !s.Literal("null") {
		if err := r.DecodeJSON(&s); err != nil {
			return fmt.Errorf("core: Result JSON: %w", err)
		}
	}
	if err := s.End(); err != nil {
		return fmt.Errorf("core: Result JSON: %w", err)
	}
	return nil
}

// DecodeJSON is UnmarshalJSON for a reader of a larger text: it decodes
// the object next in s into r, as UnmarshalJSON decodes a whole text, and
// leaves s after it.
func (r *Result) DecodeJSON(s *jsonscan.Scanner) error {
	v := reflect.ValueOf(r).Elem()
	return s.Object(resultKeys, func(i int) error {
		val, plain := s.Scalar()
		if val == nil {
			return s.Syntax("a string, number, true, false or null")
		}
		if i < 0 || string(val) == "null" {
			return nil
		}
		if err := setField(v.Field(i), val, plain); err != nil {
			return fmt.Errorf("%s: %w", resultKeys[i], err)
		}
		return nil
	})
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
		if val[0] != '"' {
			return fmt.Errorf("want a string, not %.24s", val)
		}
		f.SetString(jsonscan.Unquote(val, plain))
	}
	return nil
}
