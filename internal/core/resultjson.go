package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
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
// served-warm workload measured at +20% CPU and +25% wall time; written
// out, decoding costs what encoding/json's own struct decoder did and
// encoding 3 us a result more (the one validation json.Marshal makes of
// any MarshalJSON's output): +1 to +4% CPU on that workload.

// resultKeys are Result's field names in declaration order, resultField
// their indices.
var resultKeys, resultField = func() ([]string, map[string]int) {
	t := reflect.TypeOf(Result{})
	keys, index := make([]string, t.NumField()), map[string]int{}
	for i := range keys {
		keys[i], index[t.Field(i).Name] = t.Field(i).Name, i
	}
	return keys, index
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

// UnmarshalJSON implements json.Unmarshaler, MarshalJSON's inverse: the
// members in any order, null values and keys that name no field skipped.
// encoding/json hands it a valid JSON value, so punctuation is stepped
// over, not checked a second time; a value that is itself an object or an
// array, which Result's form has none of, is an error.
func (r *Result) UnmarshalJSON(data []byte) error {
	v := reflect.ValueOf(r).Elem()
	rest := bytes.TrimLeft(data, " \t\r\n")
	if len(rest) == 0 || rest[0] != '{' {
		if string(rest) == "null" {
			return nil
		}
		return fmt.Errorf("core: Result JSON: want an object, not %.24q", rest)
	}
	for rest = rest[1:]; ; {
		var key, val []byte
		if key, rest = scalar(rest); len(key) == 0 {
			return nil
		}
		if val, rest = scalar(rest); len(val) == 0 {
			return fmt.Errorf("core: Result JSON: want a string, number, true, false or null for %s", key)
		}
		i, ok := resultField[string(bytes.Trim(key, `"`))]
		if !ok || string(val) == "null" {
			continue
		}
		var err error
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(string(bytes.Trim(val, `"`)), 64) // "+Inf", "-Inf", "NaN"
			f.SetFloat(x)
		case reflect.Int64:
			var x int64
			x, err = strconv.ParseInt(string(val), 10, 64)
			f.SetInt(x)
		case reflect.Bool:
			var x bool
			x, err = strconv.ParseBool(string(val))
			f.SetBool(x)
		default:
			err = json.Unmarshal(val, f.Addr().Interface())
		}
		if err != nil {
			return fmt.Errorf("core: Result.%s: %w", resultKeys[i], err)
		}
	}
}

// scalar steps over the space and punctuation before the next member key or
// value in b and cuts that string or bare literal; tok is empty at the
// closing brace, at the end of b, and at a nested object or array.
func scalar(b []byte) (tok, rest []byte) {
	b = bytes.TrimLeft(b, " \t\r\n,:")
	if len(b) > 0 && b[0] == '"' {
		for i := 1; i < len(b); i++ {
			switch b[i] {
			case '\\':
				i++
			case '"':
				return b[:i+1], b[i+1:]
			}
		}
		return nil, nil
	}
	n := bytes.IndexAny(b, ",}{[ \t\r\n")
	if n < 0 {
		n = len(b)
	}
	return b[:n], b[n:]
}
