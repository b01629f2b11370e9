package value

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file is the engine's one JSON row format: a result row is the
// JSON array of its values, ints as numbers, floats as numbers, strings
// as strings, each byte for byte what encoding/json produces for the
// same Go value. The wire server's envelopes, the facade's encoded rows
// and the executor's tuple projection (exec.Projection) all append
// through these three functions, so no second spelling of a value can
// drift from encoding/json's.

// AppendRow appends row as a JSON array to dst. It fails, with
// encoding/json's error, only on a float JSON cannot carry (NaN, ±Inf).
func AppendRow(dst []byte, row Row) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case Int:
			dst = strconv.AppendInt(dst, v.I, 10)
		case Float:
			var err error
			if dst, err = AppendFloat(dst, v.F); err != nil {
				return dst, err
			}
		default:
			dst = AppendString(dst, v.S)
		}
	}
	return append(dst, ']'), nil
}

// AppendFloat appends a finite f in the plain decimal form encoding/json
// gives |f| in [1e-6, 1e21) and zero; the exponent forms outside that
// range, and the error for NaN and ±Inf, come from json.Marshal itself.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs != 0 && !(abs >= 1e-6 && abs < 1e21) {
		b, err := json.Marshal(f)
		return append(dst, b...), err
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
}

// AppendString appends s — a string, or a string's bytes still in an
// encoded tuple — as a JSON string. Plain printable ASCII with nothing
// encoding/json escapes is quoted directly; any other string is
// marshalled by encoding/json (which cannot fail for a string).
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(s))
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
