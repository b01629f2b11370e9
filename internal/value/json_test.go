package value

import (
	"encoding/json"
	"math"
	"testing"
)

// boxed is the reference the row encoder is held to: box every value
// and let encoding/json marshal the row.
func boxed(r Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.K {
		case Int:
			out[i] = v.I
		case Float:
			out[i] = v.F
		default:
			out[i] = v.S
		}
	}
	return out
}

// FuzzAppendRow asserts AppendRow produces encoding/json's bytes for a
// row of every value kind, or fails with the same error.
func FuzzAppendRow(f *testing.F) {
	for _, s := range []string{"", "plain ascii", "<>&", `"quoted" back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"sep\u2028\u2029", "bad\xff\xfeutf8", "156µs", "日本語"} {
		f.Add(s, int64(0), 0.0)
	}
	for _, i := range []int64{1, -1, math.MaxInt64, math.MinInt64} {
		f.Add("i", i, 1.0)
	}
	for _, x := range []float64{math.Copysign(0, -1), 1e21, 1e20, 1e-7, 1e-6, 5e-324, 1.7976931348623157e308,
		-1.5, 240, 1e15, 0.1, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add("x", int64(7), x)
	}
	f.Fuzz(func(t *testing.T, s string, i int64, x float64) {
		row := Row{NewString(s), NewInt(i), NewFloat(x), NewString(s)}
		want, wantErr := json.Marshal(boxed(row))
		got, err := AppendRow([]byte("keep"), row)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("AppendRow error %v, encoding/json error %v", err, wantErr)
			}
			return
		}
		if string(got) != "keep"+string(want) {
			t.Fatalf("AppendRow\n got  %s\n want keep%s", got, want)
		}
		if b, s := AppendString(nil, []byte(s)), AppendString(nil, s); string(b) != string(s) {
			t.Fatalf("AppendString over the bytes %s, over the string %s", b, s)
		}
	})
}
