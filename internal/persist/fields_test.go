package persist

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// Both readers hold numbers to the one grammar: each accepts a number
// text exactly when json.Valid does, but for a value out of float64's
// range, which json.Unmarshal refuses too, and a negative edge weight,
// which the graph archive refuses.
func TestReadersTakeJSONNumbers(t *testing.T) {
	for _, num := range []string{
		"0", "-0", "1.5", "0.25", "-1.5", "1e308", "1e309", "1e400", "1E-400", "1.5e+3", "1e-5", "123456789012345678",
		"01", "-01", "00", "1.", "1.e3", ".5", "+1", "-", "1e", "1e+", "0x10", "1_0", "Inf", "NaN",
	} {
		v, err := strconv.ParseFloat(num, 64)
		valid := json.Valid([]byte(num))
		inRange := !errors.Is(err, strconv.ErrRange)

		f := ReadFields([]byte(`{"w":` + num + `}`))
		f.Float("w")
		if got, want := f.Done(), valid && inRange; got != want {
			t.Errorf("Fields.Float accepted %q: %v, want %v", num, got, want)
		}

		doc := `{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1,` + num + `]]}`
		_, err = ReadGraph(strings.NewReader(doc))
		if got, want := err == nil, valid && inRange && !(v < 0); got != want {
			t.Errorf("ReadGraph accepted weight %q: %v (%v), want %v", num, got, err, want)
		}
	}
}
