package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// jsonRequest and jsonResponse are the /predict JSON bodies as encoding/json
// sees them: the tests' oracle for the hand-written codec.
type jsonRequest struct {
	Inputs [][]float32 `json:"inputs"`
}

type jsonResponse struct {
	Classes []int   `json:"classes"`
	Ms      float64 `json:"ms"`
}

// parseToken runs scanFloat32 over s as one whole token.
func parseToken(s string) (float32, bool) {
	v, n, ok := scanFloat32([]byte(s))
	return v, ok && n == len(s)
}

// checkFloat compares scanFloat32 with strconv.ParseFloat(s, 32) bit for
// bit; an overflow is ±Inf on both sides.
func checkFloat(t *testing.T, s string) {
	t.Helper()
	got, ok := parseToken(s)
	want, err := strconv.ParseFloat(s, 32)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		t.Fatalf("generator produced %q, which strconv rejects: %v", s, err)
	}
	if !ok {
		t.Fatalf("scanFloat32(%q) rejected a number strconv reads as %g", s, want)
	}
	if math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("scanFloat32(%q) = %g (%08x), strconv says %g (%08x)", s,
			got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
	}
}

// TestParseFloat32Exact: the no-strconv fast path and its fallback agree with
// strconv.ParseFloat(s, 32) on every spelling a client's formatter produces
// and on the decimals built to break a float64-then-float32 double rounding.
func TestParseFloat32Exact(t *testing.T) {
	// Fixed cases: zeros, the |e| = 22/23 and 19/20-digit and 2⁵³ edges of
	// the fast path, denormals, the float32 range ends, overflow.
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e5", "0e99999", "1", "-1", "0.1", "0.3", "1e0", "1E+0", "1e-0",
		"1e22", "1e23", "1e-22", "1e-23", "123456789e14", "123456789e13", "1.5e22", "15e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993e-10",
		"1234567890123456789", "12345678901234567890", "123456789012345678901234567890",
		"0.00000000000000000001234567890123456789", "1.00000000000000000000000000000000000000000001",
		"1e-45", "1.4e-45", "7e-46", "0.7e-45", "1e-46", "1.1754942e-38", "1.1754944e-38", "1.17549435e-38",
		"5.877471754111438e-39", "1e-400", "-1e-400",
		"3.4028235e38", "3.4028234e38", "3.4028235677973366e38", "3.4028236e38", "1e38", "1.7e38", "1e39", "-1e39", "1e400",
		"16777216", "16777217", "16777218", "16777217.000000001", "16777216.999999999", "8388608.5", "8388609.5",
		"0.000000000000000000000000000000000000000000001e60",
		"1" + strings.Repeat("0", 38), "1" + strings.Repeat("0", 39),
	} {
		checkFloat(t, s)
	}

	rng := rand.New(rand.NewSource(17))
	finite32 := func() float32 {
		for {
			f := math.Float32frombits(rng.Uint32())
			if !math.IsInf(float64(f), 0) && !math.IsNaN(float64(f)) {
				return f
			}
		}
	}
	const rounds = 120000
	for i := 0; i < rounds; i++ {
		// What clients send: shortest round-trip forms of float32 values.
		f := finite32()
		checkFloat(t, strconv.FormatFloat(float64(f), 'g', -1, 32))
		checkFloat(t, strconv.FormatFloat(float64(f), 'e', -1, 32))
		if a := math.Abs(float64(f)); a > 1e-12 && a < 1e12 {
			checkFloat(t, strconv.FormatFloat(float64(f), 'f', -1, 32))
		}
		// Pixel-like values: short decimals in [0, 256).
		checkFloat(t, strconv.FormatFloat(rng.Float64()*math.Pow(2, float64(rng.Intn(9))), 'f', rng.Intn(10), 64))
		// 'e' forms of float64 values with 0–19 digits after the point.
		g := math.Float64frombits(rng.Uint64())
		if !math.IsInf(g, 0) && !math.IsNaN(g) {
			checkFloat(t, strconv.FormatFloat(g, 'e', rng.Intn(20), 64))
		}
		// Digit strings: 1–25 digits, a point anywhere, exponent in ±50.
		digits := make([]byte, 1+rng.Intn(25))
		for k := range digits {
			digits[k] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' {
			digits[0] = '1'
		}
		s := string(digits)
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			s = s[:p] + "." + s[p:]
		} else if p == 0 {
			s = "0." + s
		}
		if rng.Intn(2) == 0 {
			s += fmt.Sprintf("e%d", rng.Intn(101)-50)
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		checkFloat(t, s)
	}

	// Float32 midpoints with short exact decimals, which a float64 holds
	// exactly and the fast path must hand to strconv: half-way between two
	// neighbours in [2^(23-k), 2^(24-k)) has k+1 fraction bits. Around each,
	// the float64 neighbours and decimals a hair to either side.
	for i := 0; i < rounds/4; i++ {
		k := rng.Intn(30) - 12 // negative k: integers above 2²⁴
		lo := math.Float32frombits(uint32(127+23-k)<<23 | rng.Uint32()&(1<<23-1))
		hi := math.Nextafter32(lo, float32(math.Inf(1)))
		mid := (float64(lo) + float64(hi)) / 2
		exact := strconv.FormatFloat(mid, 'f', -1, 64)
		if k < 0 {
			exact += ".0"
		}
		for _, s := range []string{
			exact, exact + "1", exact + "0000000001", "-" + exact,
			strconv.FormatFloat(math.Nextafter(mid, 0), 'f', -1, 64),
			strconv.FormatFloat(math.Nextafter(mid, math.Inf(1)), 'f', -1, 64),
			strconv.FormatFloat(mid, 'e', -1, 64),
			strconv.FormatFloat(mid, 'e', 40, 64),
		} {
			checkFloat(t, s)
		}
		// The exact expansion of a midpoint anywhere in the float32 range.
		lo = float32(math.Abs(float64(finite32())))
		mid = (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
		if !math.IsInf(mid, 0) {
			checkFloat(t, strconv.FormatFloat(mid, 'e', 120, 64))
		}
	}

	// Not JSON numbers, whatever strconv thinks of them.
	for _, s := range []string{
		"", "-", "01", "-01", "1.", ".5", "-.5", "+1", "1e", "1e+", "1e-", "--1", "1.e5", "1e5.5", "1.5.5",
		"0x10", "1_0", "Inf", "-Inf", "NaN", "nan", "infinity", "1e5e5", "1f", "١", " 1", "1 ", "1,",
	} {
		if v, ok := parseToken(s); ok {
			t.Errorf("scanFloat32 accepted %q as %g", s, v)
		}
	}
}

// TestPredictResponseBytes: the appended response is byte for byte what
// json.Encoder wrote before it.
func TestPredictResponseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch []byte
	for i := 0; i < 2000; i++ {
		preds := make([]int, 1+rng.Intn(9))
		for k := range preds {
			preds[k] = rng.Intn(1 << uint(rng.Intn(20)))
		}
		micros := rng.Int63n(1 << uint(1+rng.Intn(50)))
		if i == 0 {
			micros = 0
		}
		ms := float64(micros) / 1e3
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(jsonResponse{Classes: preds, Ms: ms}); err != nil {
			t.Fatal(err)
		}
		scratch = appendPredictResponse(scratch[:0], preds, ms)
		if !bytes.Equal(scratch, want.Bytes()) {
			t.Fatalf("response %q, json.Encoder writes %q", scratch, want.Bytes())
		}
	}
}

// jsonBody spells rows as the benchmark's client does: shortest 'g' floats,
// no whitespace.
func jsonBody(data []float32, n, sampleLen int) []byte {
	b := []byte(`{"inputs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range data[i*sampleLen : (i+1)*sampleLen] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// imageLike fills n floats the way a normalized image batch looks.
func imageLike(n int) []float32 {
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

// TestCodecZeroAlloc: decoding an 8-image JSON body into the pooled scratch
// and encoding its response allocates nothing once the scratch is warm.
func TestCodecZeroAlloc(t *testing.T) {
	const n, sampleLen = 8, 3 * 32 * 32
	c := newCodec(sampleLen, n)
	body := jsonBody(imageLike(n*sampleLen), n, sampleLen)
	preds := []int{3, 1, 4, 1, 5, 9, 2, 6}
	sc := new(reqScratch)
	rd := bytes.NewReader(body)
	hot := func() {
		rd.Reset(body)
		got, err := c.decodeInputs(rd, sc)
		if err != nil || got != n {
			t.Fatalf("decode: %d rows, %v", got, err)
		}
		sc.out = appendPredictResponse(sc.out[:0], preds, 1.234)
	}
	hot()
	if allocs := testing.AllocsPerRun(20, hot); allocs != 0 {
		t.Fatalf("JSON codec allocates %.1f times per request", allocs)
	}
}

// BenchmarkDecodeInputs decodes the online_json workload's body (8 images of
// 3×32×32): the codec against the encoding/json decode it replaced, which
// is the base of the ratio.
func BenchmarkDecodeInputs(b *testing.B) {
	const n, sampleLen = 8, 3 * 32 * 32
	body := jsonBody(imageLike(n*sampleLen), n, sampleLen)
	b.Run("codec", func(b *testing.B) {
		c := newCodec(sampleLen, n)
		sc := new(reqScratch)
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, err := c.decodeInputs(rd, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			var req jsonRequest
			if err := json.NewDecoder(rd).Decode(&req); err != nil {
				b.Fatal(err)
			}
			data := make([]float32, 0, n*sampleLen)
			for _, row := range req.Inputs {
				data = append(data, row...)
			}
		}
	})
}

// BenchmarkReadFrame reads the online_single workload's body (one 3×32×32
// image, a 12 KiB binary frame): readFrame alone, the codec's share of the
// benchmark's serve.codec_us (DESIGN.md, "Serving front end").
func BenchmarkReadFrame(b *testing.B) {
	const sampleLen = 3 * 32 * 32
	c := newCodec(sampleLen, 32)
	body := binaryFrame(1, float32bits(imageLike(sampleLen)))
	sc := new(reqScratch)
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := c.readFrame(rd, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// withinCodecLimits walks a body encoding/json has accepted and reports
// whether it also stays inside what the codec refuses on purpose: one
// inputs member, no null under it, no number longer than maxNumberLen bytes,
// no skipped member nested deeper than maxSkipDepth.
func withinCodecLimits(t *testing.T, body []byte) bool {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	next := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("token walk of a body Unmarshal accepted: %v\n%q", err, body)
		}
		return tok
	}
	if next() != json.Delim('{') {
		return false
	}
	members := 0
	for dec.More() {
		inputs := strings.EqualFold(next().(string), "inputs") // encoding/json's field match
		if inputs {
			members++
		}
		for depth := 0; ; {
			switch v := next().(type) {
			case json.Delim:
				if v == '[' || v == '{' {
					if depth++; !inputs && depth > maxSkipDepth {
						return false
					}
				} else {
					depth--
				}
			case json.Number:
				if len(v) > maxNumberLen {
					return false
				}
			case nil:
				if inputs {
					return false
				}
			}
			if depth == 0 {
				break
			}
		}
	}
	return members == 1
}

// checkDecodeAgainstJSON is the differential oracle: wherever the codec
// accepts, encoding/json accepts, the body is within the codec's limits and
// shape, and every float has the same bits; wherever encoding/json yields
// 1..maxBatch rows of sampleLen floats from a body within the codec's
// limits, the codec accepts. It reports whether the codec accepted.
func checkDecodeAgainstJSON(t *testing.T, body []byte, c codec) (accepted bool) {
	t.Helper()
	var sc reqScratch
	n, err := c.decodeInputs(bytes.NewReader(body), &sc)

	var want jsonRequest
	jerr := json.Unmarshal(body, &want)
	if err == nil {
		if jerr != nil {
			t.Fatalf("window %d: codec accepted what encoding/json rejects (%v)\n%q", c.window, jerr, body)
		}
		if n != len(want.Inputs) || len(sc.data) != n*c.sampleLen || n < 1 || n > c.maxBatch {
			t.Fatalf("window %d: codec read %d rows, %d floats; encoding/json %d rows\n%q", c.window, n, len(sc.data), len(want.Inputs), body)
		}
		if !withinCodecLimits(t, body) {
			t.Fatalf("window %d: codec accepted a body outside its own limits\n%q", c.window, body)
		}
		for i, row := range want.Inputs {
			if len(row) != c.sampleLen {
				t.Fatalf("window %d: codec accepted input %d, which has %d floats\n%q", c.window, i, len(row), body)
			}
			for j, v := range row {
				if got := sc.data[i*c.sampleLen+j]; math.Float32bits(got) != math.Float32bits(v) {
					t.Fatalf("window %d: input %d value %d is %g (%08x), encoding/json says %g (%08x)\n%q",
						c.window, i, j, got, math.Float32bits(got), v, math.Float32bits(v), body)
				}
			}
		}
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.Is(err, io.EOF) || errors.As(err, &tooLarge) {
		t.Fatalf("window %d: decode of an in-memory body failed with a read error: %v", c.window, err)
	}
	if jerr != nil || len(want.Inputs) < 1 || len(want.Inputs) > c.maxBatch {
		return false
	}
	for _, row := range want.Inputs {
		if len(row) != c.sampleLen {
			return false
		}
	}
	if withinCodecLimits(t, body) {
		t.Fatalf("window %d: codec rejected (%v) a body encoding/json reads as %d good rows\n%q", c.window, err, len(want.Inputs), body)
	}
	return false
}

// bodyGen writes random request bodies: mostly well-formed, in every
// spelling the grammar allows, sometimes just outside it.
type bodyGen struct {
	rng *rand.Rand
	b   []byte
}

func (g *bodyGen) chance(n int) bool { return g.rng.Intn(n) == 0 }

func (g *bodyGen) space() {
	for g.chance(3) {
		g.b = append(g.b, " \n\t\r"[g.rng.Intn(4)])
	}
}

func (g *bodyGen) number() {
	rng := g.rng
	switch rng.Intn(12) {
	case 0:
		g.b = strconv.AppendInt(g.b, int64(rng.Intn(512)-256), 10)
	case 1:
		g.b = append(g.b, []string{"0", "-0", "0.0", "1e-45", "1E+2", "3.4028235e38", "1e-400", "16777217", "8388608.5"}[rng.Intn(9)]...)
	case 2:
		g.b = append(g.b, []string{"1e39", "-1e400", "01", "1.", ".5", "+1", "1e", "--1", "null", "NaN", "\"1\"", "[1]", "true"}[rng.Intn(13)]...)
	case 3:
		// Up to and past the 64-byte token limit.
		g.b = append(g.b, "0."...)
		for k := 10 + rng.Intn(60); k > 0; k-- {
			g.b = append(g.b, byte('0'+rng.Intn(10)))
		}
	case 4:
		g.b = strconv.AppendFloat(g.b, float64(math.Float32frombits(rng.Uint32()&^(0xff<<23)|uint32(rng.Intn(255))<<23)), 'e', rng.Intn(12), 32)
	case 5:
		g.b = strconv.AppendFloat(g.b, rng.NormFloat64(), 'f', rng.Intn(18), 64)
	default:
		g.b = strconv.AppendFloat(g.b, float64(float32(rng.NormFloat64())), 'g', -1, 32)
	}
}

func (g *bodyGen) str() {
	g.b = append(g.b, '"')
	for k := g.rng.Intn(12); k > 0; k-- {
		g.b = append(g.b, []string{"a", "Z", " ", "é", "\\n", "\\\"", "\\\\", "\\/", "\\u00e9", "\\ud83d\\ude00", "\\udc00", "{", "]", ",", "\xff", "inputs"}[g.rng.Intn(16)]...)
	}
	if g.chance(40) {
		g.b = append(g.b, []string{"\n", "\\x", "\\u12g4", "\x01"}[g.rng.Intn(4)]...) // not a JSON string
	}
	g.b = append(g.b, '"')
}

// value writes a member value the codec has to skip.
func (g *bodyGen) value(depth int) {
	switch k := g.rng.Intn(9); {
	case k == 0:
		g.b = append(g.b, "true"...)
	case k == 1:
		g.b = append(g.b, []string{"false", "null", "nul", "tru e", "nope"}[g.rng.Intn(5)]...)
	case k == 2:
		g.number()
	case k <= 4:
		g.str()
	case depth > 3:
		g.b = append(g.b, "[]"...)
	case k <= 6:
		g.b = append(g.b, '[')
		for i, n := 0, g.rng.Intn(4); i < n; i++ {
			if i > 0 {
				g.b = append(g.b, ',')
			}
			g.space()
			g.value(depth + 1)
			g.space()
		}
		g.b = append(g.b, ']')
	default:
		g.b = append(g.b, '{')
		for i, n := 0, g.rng.Intn(4); i < n; i++ {
			if i > 0 {
				g.b = append(g.b, ',')
			}
			g.space()
			g.str()
			g.space()
			g.b = append(g.b, ':')
			g.space()
			g.value(depth + 1)
			g.space()
		}
		g.b = append(g.b, '}')
	}
}

func (g *bodyGen) inputs(c codec) {
	rows := 1 + g.rng.Intn(c.maxBatch)
	if g.chance(12) {
		rows = g.rng.Intn(c.maxBatch + 3)
	}
	g.b = append(g.b, '[')
	for i := 0; i < rows; i++ {
		if i > 0 {
			g.b = append(g.b, ',')
		}
		g.space()
		floats := c.sampleLen
		if g.chance(20) {
			floats = g.rng.Intn(c.sampleLen + 3)
		}
		if g.chance(60) {
			g.b = append(g.b, "null"...)
			continue
		}
		g.b = append(g.b, '[')
		for j := 0; j < floats; j++ {
			if j > 0 {
				g.b = append(g.b, ',')
			}
			g.space()
			g.number()
			g.space()
		}
		g.b = append(g.b, ']')
		g.space()
	}
	g.b = append(g.b, ']')
}

// body writes one request for c's shape.
func (g *bodyGen) body(c codec) []byte {
	g.b = g.b[:0]
	g.space()
	g.b = append(g.b, '{')
	members := g.rng.Intn(4)
	at := g.rng.Intn(members + 1)
	for i := 0; i <= members; i++ {
		if i > 0 {
			g.b = append(g.b, ',')
		}
		g.space()
		if i == at || g.chance(25) {
			key := []string{"inputs", "inputs", "inputs", "Inputs", "INPUTS", "\\u0069nputs", "input\\u017f", "inputſ", "ınputs", "inputs "}[g.rng.Intn(10)]
			g.b = append(append(append(g.b, '"'), key...), '"')
			g.space()
			g.b = append(g.b, ':')
			g.space()
			if g.chance(40) {
				g.b = append(g.b, "null"...)
			} else {
				g.inputs(c)
			}
		} else {
			g.str()
			g.space()
			g.b = append(g.b, ':')
			g.space()
			g.value(0)
		}
		g.space()
	}
	g.b = append(g.b, '}')
	g.space()
	switch g.rng.Intn(30) {
	case 0:
		g.b = g.b[:g.rng.Intn(len(g.b)+1)] // truncated
	case 1:
		g.b = append(g.b, []string{"x", "{}", "]", "0"}[g.rng.Intn(4)]...) // trailing garbage
	case 2:
		const damage = "{}[],:\"\\ x0-.e"
		g.b[g.rng.Intn(len(g.b))] = damage[g.rng.Intn(len(damage))]
	}
	return g.b
}

// TestDecodeInputsMatchesEncodingJSON runs random bodies through the codec,
// with the window shrunk to 16–64 bytes so that every kind of token is cut by
// a refill, and at full size, against encoding/json.
func TestDecodeInputsMatchesEncodingJSON(t *testing.T) {
	g := &bodyGen{rng: rand.New(rand.NewSource(29))}
	accepted := 0
	const bodies = 30000
	for i := 0; i < bodies; i++ {
		c := codec{sampleLen: 1 + g.rng.Intn(5), maxBatch: 1 + g.rng.Intn(3), window: 16 + g.rng.Intn(49)}
		body := g.body(c)
		small := checkDecodeAgainstJSON(t, body, c)
		c.window = jsonWindow
		if full := checkDecodeAgainstJSON(t, body, c); full != small {
			t.Fatalf("codec verdict depends on the window: accepted %v at full size\n%q", full, body)
		} else if full {
			accepted++
		}
	}
	// The generator has to land on both sides of the grammar to mean much.
	if accepted < bodies/4 || accepted > bodies*3/4 {
		t.Fatalf("codec accepted %d of %d generated bodies; the generator has drifted", accepted, bodies)
	}

	// A skipped member may nest maxSkipDepth deep and no deeper.
	c := codec{sampleLen: 1, maxBatch: 1, window: 32}
	for depth, ok := range map[int]bool{maxSkipDepth: true, maxSkipDepth + 1: false} {
		body := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"inputs":[[1]]}`)
		var sc reqScratch
		if _, err := c.decodeInputs(bytes.NewReader(body), &sc); (err == nil) != ok {
			t.Fatalf("skipped member nested %d deep: %v", depth, err)
		}
		checkDecodeAgainstJSON(t, body, c)
	}
}

// FuzzDecodeInputs holds arbitrary bytes to the same oracle, at a window
// small enough that the fuzzer's short inputs cross it.
func FuzzDecodeInputs(f *testing.F) {
	g := &bodyGen{rng: rand.New(rand.NewSource(31))}
	shape := codec{sampleLen: 3, maxBatch: 2}
	for i := 0; i < 32; i++ {
		f.Add(bytes.Clone(g.body(shape)), uint8(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, window uint8) {
		c := shape
		c.window = 16 + int(window)%49
		small := checkDecodeAgainstJSON(t, body, c)
		c.window = jsonWindow
		if full := checkDecodeAgainstJSON(t, body, c); full != small {
			t.Fatalf("codec verdict depends on the window: accepted %v at full size", full)
		}
	})
}

// TestFrameSamplesBounds: a frame's count is accepted exactly inside
// 1..maxBatch, whatever the uint32 says, before anything is sized from it.
func TestFrameSamplesBounds(t *testing.T) {
	for _, tc := range []struct {
		n        uint32
		maxBatch int
		ok       bool
	}{
		{0, 8, false}, {1, 8, true}, {8, 8, true}, {9, 8, false},
		{1 << 31, 8, false}, {math.MaxUint32, 8, false}, {math.MaxUint32, math.MaxInt32, false},
		{1, 0, false},
	} {
		got, err := frameSamples(tc.n, tc.maxBatch)
		if (err == nil) != tc.ok || (tc.ok && got != int(tc.n)) || (!tc.ok && got != 0) {
			t.Errorf("frameSamples(%d, %d) = %d, %v; want ok=%v", tc.n, tc.maxBatch, got, err, tc.ok)
		}
	}
}

// FuzzReadFrame holds arbitrary binary /predict request bodies (4-byte
// header: the count) to readFrame's contract, worked out from the bytes:
// a cut header, a count outside 1..maxBatch, a cut payload and a NaN or ±Inf
// value are each refused, in that order and for that reason; anything else is
// count·sampleLen finite floats with the body's bits (bytes after the payload
// are not the frame's). A refused count sizes nothing, and no count sizes the
// payload buffer beyond maxBatch·sampleLen·4 bytes.
func FuzzReadFrame(f *testing.F) {
	c := newCodec(3, 2)
	f.Fuzz(func(t *testing.T, body []byte) {
		var sc reqScratch
		var hdr [4]byte
		n, err := c.readFrame(bytes.NewReader(body), &sc)
		if limit := 4 * c.maxBatch * c.sampleLen; len(sc.raw) > limit {
			t.Fatalf("payload buffer of %d bytes, limit %d", len(sc.raw), limit)
		}
		if err != nil && n != 0 {
			t.Fatalf("%d samples returned with error %v", n, err)
		}
		if len(body) < len(hdr) {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("header of %d bytes: %v", len(body), err)
			}
			return
		}
		count := binary.LittleEndian.Uint32(body)
		if count < 1 || count > uint32(c.maxBatch) {
			if err == nil || cap(sc.raw) != 0 || cap(sc.data) != 0 {
				t.Fatalf("count %d: err %v, buffers sized %d and %d", count, err, cap(sc.raw), cap(sc.data))
			}
			return
		}
		floats := int(count) * c.sampleLen
		payload := body[len(hdr):]
		if len(payload) < 4*floats {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("payload of %d bytes for %d floats: %v", len(payload), floats, err)
			}
			return
		}
		finite := true
		for i := 0; i < floats; i++ {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if !finite {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite payload: %v", err)
			}
			return
		}
		if err != nil || n != int(count) || len(sc.data) != floats {
			t.Fatalf("well-formed frame of %d samples: n=%d, %d floats, %v", count, n, len(sc.data), err)
		}
		for i, v := range sc.data {
			if math.Float32bits(v) != binary.LittleEndian.Uint32(payload[4*i:]) {
				t.Fatalf("float %d = %x, body has %x", i, math.Float32bits(v), binary.LittleEndian.Uint32(payload[4*i:]))
			}
		}
	})
}
