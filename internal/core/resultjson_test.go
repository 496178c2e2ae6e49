package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestResultJSONMatchesEncodingJSON: for finite values Result's codec is
// indistinguishable from encoding/json's own treatment of the struct — the
// same bytes out, and anything encoding/json would read (members reordered,
// indented, unknown keys, nulls) read to the same value. The bit-lossless
// round trip of every value, non-finite included, is serve's
// TestResultRoundTrip, which takes it through the store as well.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	type plain Result
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		var r Result
		v := reflect.ValueOf(&r).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Float64:
				// Random bit patterns cover every exponent, so both number
				// forms and their cutoffs.
				x := math.Float64frombits(rng.Uint64())
				for math.IsNaN(x) || math.IsInf(x, 0) {
					x = math.Float64frombits(rng.Uint64())
				}
				f.SetFloat(x)
			case reflect.Int64:
				f.SetInt(int64(rng.Uint64()))
			case reflect.Bool:
				f.SetBool(rng.Intn(2) == 0)
			case reflect.String:
				f.SetString(string(rune(rng.Intn(0x2100))) + "<\"\\>")
			}
		}
		got, err := json.Marshal(r)
		want, _ := json.Marshal(plain(r))
		if err != nil || string(got) != string(want) {
			t.Fatalf("bytes differ from encoding/json's (err=%v):\n got %s\nwant %s", err, got, want)
		}
		var back Result
		if err := json.Unmarshal(want, &back); err != nil || back != r {
			t.Fatalf("%s decodes to %+v (err=%v)", want, back, err)
		}
	}

	var r Result
	const loose = ` { "Zed" : "skipped" , "Cycles" : 7 , "CI95" : null,
		"SatReason":"a \"b\" \\", "Saturated":true,"AvgLatency":1e3 } `
	if err := json.Unmarshal([]byte(loose), &r); err != nil || r != (Result{Cycles: 7, SatReason: `a "b" \`, Saturated: true, AvgLatency: 1000}) {
		t.Errorf("loose object: %+v err=%v", r, err)
	}
	for _, bad := range []string{
		`[1]`, `7`, `{"CI95":{}}`, `{"CI95":[1]}`, `{"Zed":{"CI95":1}}`, `{"CI95":"wide"}`, `{"CI95":1e999}`,
		`{"Cycles":1.5}`, `{"Cycles":"7"}`, `{"Saturated":2}`, `{"SatReason":3}`,
		// A float's string is exactly "+Inf", "-Inf" or "NaN", as written.
		`{"CI95":"12"}`, `{"CI95":"0x1p3"}`, `{"CI95":"1_0"}`, `{"CI95":"inf"}`, `{"CI95":"Infinity"}`,
	} {
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	// UnmarshalJSON called by hand, on input encoding/json never vetted,
	// as the store's reader calls it: an error, never a panic or a hang.
	for _, junk := range []string{``, `{`, `{"A"`, `{"A":`, `{"CI95":"`, `{"CI95":"\`, `{"CI95"::,,`, `{{{{`, `{"CI95":1`,
		`{"CI95":1,}`, `{"CI95" 1}`, `{"CI95":01}`, `{"CI95":.5}`} {
		if err := r.UnmarshalJSON([]byte(junk)); err == nil {
			t.Errorf("%s: accepted", junk)
		}
	}
}

// refFloat is a Result float as the reference decoder reads it: a JSON
// number as encoding/json reads a float64, or exactly one of the three
// strings MarshalJSON writes for a float that is not finite.
type refFloat float64

func (f *refFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = refFloat(math.Inf(1))
	case `"-Inf"`:
		*f = refFloat(math.Inf(-1))
	case `"NaN"`:
		*f = refFloat(math.NaN())
	case "null":
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}

// refResult is Result's mirror for the reference decoder: the same fields
// under the same names, each float a refFloat.
var refResult = func() reflect.Type {
	t := reflect.TypeOf(Result{})
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
		if fields[i].Type.Kind() == reflect.Float64 {
			fields[i].Type = reflect.TypeOf(refFloat(0))
		}
	}
	return reflect.StructOf(fields)
}()

// refDecode is what Result.UnmarshalJSON must do to data: json.Valid, a
// decode by encoding/json into refResult, and no member whose value is an
// object or an array.
func refDecode(data []byte) (Result, bool) {
	if !json.Valid(data) {
		return Result{}, false
	}
	d := json.NewDecoder(bytes.NewReader(data))
	d.UseNumber()
	if tok, _ := d.Token(); tok == json.Delim('{') {
		for d.More() {
			d.Token() // the member's name
			if tok, _ := d.Token(); tok == json.Delim('{') || tok == json.Delim('[') {
				return Result{}, false
			}
		}
	}
	m := reflect.New(refResult)
	if json.Unmarshal(data, m.Interface()) != nil {
		return Result{}, false
	}
	var r Result
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Set(m.Elem().Field(i).Convert(v.Field(i).Type()))
	}
	return r, true
}

// FuzzResultJSON holds the strict decoder to refDecode: it succeeds exactly
// when the reference does, and then every field equals the reference's to
// the bit.
func FuzzResultJSON(f *testing.F) {
	canonical, err := Result{AvgLatency: 41.5, CI95: math.Inf(1), Delivered: 7, Saturated: true, SatReason: "a \"b\""}.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(canonical),
		` { "Zed" : "skipped" , "Cycles" : 7 , "CI95" : null,
		"SatReason":"a \"b\" \\", "Saturated":true,"AvgLatency":1e3 } `,
		`[1]`, `7`, `{"CI95":{}}`, `{"CI95":[1]}`, `{"Zed":{"CI95":1}}`, `{"CI95":"wide"}`, `{"CI95":1e999}`,
		`{"Cycles":1.5}`, `{"Cycles":"7"}`, `{"Saturated":2}`, `{"SatReason":3}`,
		`{"CI95":"12"}`, `{"CI95":"0x1p3"}`, `{"CI95":"1_0"}`, `{"CI95":"inf"}`, `{"CI95":"Infinity"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Result
		err := got.UnmarshalJSON(data)
		want, ok := refDecode(data)
		if (err == nil) != ok {
			t.Fatalf("%q: decoder err=%v, reference accepts: %v", data, err, ok)
		}
		if !ok {
			return
		}
		g, w := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < g.NumField(); i++ {
			gf, wf := g.Field(i), w.Field(i)
			same := gf.Equal(wf)
			if gf.Kind() == reflect.Float64 {
				same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
			}
			if !same {
				t.Fatalf("%q: %s is %v, the reference reads %v", data, resultKeys[i], gf, wf)
			}
		}
	})
}
