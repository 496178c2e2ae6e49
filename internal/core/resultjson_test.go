package core

import (
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
	} {
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	// UnmarshalJSON called by hand, on input encoding/json never vetted:
	// an error or a partial value, never a panic or a hang.
	for _, junk := range []string{``, `{`, `{"A"`, `{"A":`, `{"CI95":"`, `{"CI95":"\`, `{"CI95"::,,`, `{{{{`, `{"CI95":1`} {
		_ = r.UnmarshalJSON([]byte(junk))
	}
}
