package persist

import (
	"math"
	"strconv"
	"testing"
)

// hardWeights are the texts a one-pass converter gets wrong first, each
// read by plainFloat to exactly strconv.ParseFloat's bits.
var hardWeights = []string{
	// zero, and both ends of the range WriteGraph writes in 'f' form
	"0", "0.0", "0.000000", "0.000001", "0.0000009999999999999999",
	"999999999999999868928", "1000000000000000000000",
	// ties around 2^53: halfway cases round to even
	"9007199254740991", "9007199254740992", "9007199254740993",
	"9007199254740994", "9007199254740995", "9007199254740997",
	"9007199254740993.0", "4503599627370496.5", "4503599627370497.5",
	"18014398509481985", "18014398509481987",
	// just below and just above half an ulp of 1, and 19 digits so close
	// above a halfway point that only the quotient's remainder says so
	"1.000000000000000111", "1.000000000000000112",
	"1458.806125968701622", "950225.3639028433827", "54455532.80903561786",
	// near 2^63 and 2^64, and the 19/20-digit mantissa boundary
	"9223372036854775807", "9223372036854775808", "1844674407370955161",
	"18446744073709551615", "18446744073709551616", "18446744073709551617",
	"9999999999999999999", "10000000000000000000",
	"1234567890123456789", "12345678901234567890",
	// fractions of 19, 20, 22 and 23 digits
	"0.1234567890123456789", "0.12345678901234567890",
	"0.1234567890123456789012", "0.12345678901234567890123",
	"0.0000000000000000000001", "0.00000000000000000000001",
	"0.0000000000000000001234", "0.00000000000000000012345",
	// what WriteGraph writes for the benchmark's weights, and classics
	"57.382716384729164", "5.123456789012345", "0.30000000000000004",
	"0.1", "2.2250738585072014", "1.7976931348623157", "123456789.98765432",
	// more digits than any fast path takes, and more than a float64 holds
	"1.00000000000000011102230246251565404236316680908203125",
	"179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497792",
	"179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497791",
}

// checkPlainFloat holds plainFloat to strconv on s, a text of the form
// d+(.d+)?: it is refused if its integer part has a leading zero or
// strconv refuses it, and otherwise read whole to strconv's bits. Each
// text is read at the end of a window, where digits go one at a time, and
// ahead of a long tail, where they go eight at a time.
func checkPlainFloat(t *testing.T, s string) {
	t.Helper()
	want, err := strconv.ParseFloat(s, 64)
	refused := err != nil || len(s) > 1 && s[0] == '0' && s[1] != '.'
	for _, tail := range []string{"\n", "\n    ],\n    [\n      "} {
		end, got := plainFloat([]byte(s+tail), 0)
		switch {
		case refused && end != -1:
			t.Fatalf("%q: read %v to byte %d, want it refused (strconv: %v)", s, got, end, err)
		case !refused && (end != len(s) || math.Float64bits(got) != math.Float64bits(want)):
			t.Fatalf("%q: read %v (%#x) to byte %d, strconv reads %v (%#x)", s, got, math.Float64bits(got), end, want, math.Float64bits(want))
		}
	}
}

func TestPlainFloatHardCases(t *testing.T) {
	for _, s := range hardWeights {
		checkPlainFloat(t, s)
	}
	for _, s := range []string{"01", "00.5", "007", "1.", ".5", "1e5", "-1"} {
		if end, _ := plainFloat([]byte(s+"\n"), 0); end != -1 {
			t.Errorf("%q: read to byte %d, want it refused", s, end)
		}
	}
}

// numberText turns fuzz bytes into a text of the form d+(.d+)?: a digit
// stays, the first '.' after a digit stays, and any other byte becomes a
// digit.
func numberText(data []byte) string {
	text, point := make([]byte, 0, len(data)+1), false
	for _, c := range data {
		switch {
		case '0' <= c && c <= '9':
			text = append(text, c)
		case c == '.' && !point && len(text) > 0:
			text, point = append(text, c), true
		default:
			text = append(text, '0'+c%10)
		}
	}
	if len(text) == 0 || text[len(text)-1] == '.' {
		text = append(text, '0')
	}
	return string(text)
}

// FuzzPlainFloat: whatever digits and point the bytes make, plainFloat
// reads them to exactly strconv.ParseFloat's bits — by Clinger's
// division, the 128-bit quotient or the strconv fallback — or refuses
// exactly what it must. The seed corpus is in testdata/fuzz/FuzzPlainFloat.
func FuzzPlainFloat(f *testing.F) {
	for _, s := range hardWeights {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlainFloat(t, numberText(data))
	})
}
