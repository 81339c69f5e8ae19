package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /predict codec: request decode and response encode, JSON and binary.
//
// JSON grammar accepted: one object, JSON whitespace anywhere, exactly one
// member whose key matches "inputs" the way encoding/json matches a struct
// field (after unescaping, bytes.EqualFold), holding a non-empty array of at
// most MaxBatch rows of exactly C·H·W numbers. Every other member is
// validated and skipped. Stricter than encoding/json on purpose: a duplicate
// inputs member, null in place of a row or a number, a number token longer
// than maxNumberLen bytes, a number that rounds to ±Inf, nesting deeper than
// maxSkipDepth in a skipped member, and anything but whitespace after the
// closing brace are errors. Every error is a 400 naming the row, except a
// body over the size limit, which is a 413.
//
// The body is parsed in one pass through a fixed pooled window, so the
// memory a request holds does not depend on the size of its body, and each
// limit is checked before the work it bounds: nothing is sized by a count
// the body claims.
const (
	jsonWindow   = 64 << 10
	maxNumberLen = 64
	maxSkipDepth = 32
)

// ErrNonFinite reports a NaN or ±Inf input value. The engine's kernels
// define what a NaN does inside a layer, not what label it produces, so such
// a value is refused at the door on every surface.
var ErrNonFinite = errors.New("serve: non-finite input")

// reqScratch is one request's pooled working set, shared by both codecs.
type reqScratch struct {
	raw  []byte    // JSON read window, or the binary frame's payload
	data []float32 // decoded samples, handed to the batcher as is
	out  []byte    // encoded response
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// codec holds the limits of one /predict surface.
type codec struct {
	sampleLen, maxBatch int
	// window is the JSON read window in bytes: jsonWindow, except in tests
	// that shrink it to put every token across a refill.
	window int
}

func newCodec(sampleLen, maxBatch int) codec {
	return codec{sampleLen: sampleLen, maxBatch: maxBatch, window: jsonWindow}
}

// maxBody bounds a request body: JSON floats are ≲ 16 bytes each; allow
// headroom over the largest admissible batch.
func (c codec) maxBody() int64 {
	return int64(c.maxBatch)*int64(c.sampleLen)*24 + 4096
}

// decodeError answers a request whose body did not decode: 413 when it ran
// past the size limit, 400 for everything else.
func decodeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
}

// appendPredictResponse appends the JSON response, byte for byte what
// json.Encoder writes for {"classes": preds, "ms": ms}: ms is a count of
// microseconds over 1e3, always inside the range the encoder prints in 'f'
// form.
func appendPredictResponse(dst []byte, preds []int, ms float64) []byte {
	dst = append(dst, `{"classes":[`...)
	for i, p := range preds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	dst = append(dst, `],"ms":`...)
	dst = strconv.AppendFloat(dst, ms, 'f', -1, 64)
	return append(dst, "}\n"...)
}

// appendLabelFrame appends the binary response: uint32 LE count, then one
// uint32 LE class index per sample.
func appendLabelFrame(dst []byte, preds []int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(preds)))
	for _, p := range preds {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	return dst
}

// frameSamples bounds a frame's sample count before any payload-sized
// allocation: the count must be positive, within the server's batch limit,
// and small enough that n·sampleLen·4 bytes cannot overflow or balloon.
func frameSamples(n uint32, maxBatch int) (int, error) {
	if n < 1 || int64(n) > int64(maxBatch) {
		return 0, fmt.Errorf("frame of %d samples (want 1..%d)", n, maxBatch)
	}
	return int(n), nil
}

// readFrame reads a binary request frame into sc.data: the uint32 LE sample
// count, then count·sampleLen float32 LE values. The count is bounds-checked
// before the payload buffer is sized from it.
func (c codec) readFrame(body io.Reader, sc *reqScratch) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return 0, fmt.Errorf("short frame header: %w", err)
	}
	n, err := frameSamples(binary.LittleEndian.Uint32(hdr[:]), c.maxBatch)
	if err != nil {
		return 0, err
	}
	floats := n * c.sampleLen
	sc.raw = slices.Grow(sc.raw[:0], 4*floats)[:4*floats]
	if _, err := io.ReadFull(body, sc.raw); err != nil {
		return 0, fmt.Errorf("short frame body: %w", err)
	}
	sc.data = slices.Grow(sc.data[:0], floats)[:floats]
	for i := range sc.data {
		u := binary.LittleEndian.Uint32(sc.raw[4*i:])
		if u&0x7f800000 == 0x7f800000 {
			return 0, fmt.Errorf("%w: sample %d, value %d", ErrNonFinite, i/c.sampleLen, i%c.sampleLen)
		}
		sc.data[i] = math.Float32frombits(u)
	}
	return n, nil
}

// decodeInputs parses a JSON request body into sc.data and returns the
// number of rows.
func (c codec) decodeInputs(body io.Reader, sc *reqScratch) (int, error) {
	sc.raw = slices.Grow(sc.raw[:0], c.window)
	d := decoder{r: body, buf: sc.raw[:c.window], codec: c, data: sc.data[:0]}
	n, err := d.object()
	sc.data = d.data
	return n, err
}

// decoder is the streaming JSON reader. buf[pos:end] is the unread part of
// the window; when it runs dry the whole window is refilled, and a number
// the refill cuts in two is put together in tok.
type decoder struct {
	codec
	r        io.Reader
	buf      []byte
	pos, end int
	rerr     error // what the reader returned last, io.EOF included
	data     []float32
	tok      [maxNumberLen]byte
}

// fill replaces the exhausted window with the next bytes of the body.
func (d *decoder) fill() error {
	for tries := 0; d.rerr == nil; tries++ {
		if tries == 100 {
			d.rerr = io.ErrNoProgress
			break
		}
		var n int
		n, d.rerr = d.r.Read(d.buf)
		if n > 0 {
			d.pos, d.end = 0, n
			return nil
		}
	}
	if d.rerr == io.EOF {
		return errBodyEnded
	}
	return d.rerr
}

// errBodyEnded is what the decoder reports when it needs a byte and the body
// has none left: a truncated request everywhere but after the closing brace.
var errBodyEnded = errors.New("bad JSON: unexpected end of body")

// peek returns the next byte without consuming it.
func (d *decoder) peek() (byte, error) {
	if d.pos == d.end {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	return d.buf[d.pos], nil
}

// next consumes one byte.
func (d *decoder) next() (byte, error) {
	c, err := d.peek()
	if err == nil {
		d.pos++
	}
	return c, err
}

// token skips whitespace and consumes the byte after it. The common case,
// a token right here, is kept small enough to inline.
func (d *decoder) token() (byte, error) {
	if d.pos < d.end {
		if c := d.buf[d.pos]; c > ' ' {
			d.pos++
			return c, nil
		}
	}
	return d.tokenSlow()
}

func (d *decoder) tokenSlow() (byte, error) {
	for {
		c, err := d.next()
		if err != nil || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return c, err
		}
	}
}

// expect consumes the next token, which must be want.
func (d *decoder) expect(want byte, where string) error {
	c, err := d.token()
	if err != nil {
		return err
	}
	if c != want {
		return fmt.Errorf("bad JSON: %q %s, want %q", c, where, want)
	}
	return nil
}

// object parses the request object and checks that nothing follows it.
func (d *decoder) object() (int, error) {
	if err := d.expect('{', "at the start of the body"); err != nil {
		return 0, err
	}
	rows, seen := 0, false
	for first := true; ; first = false {
		c, err := d.token()
		if err != nil {
			return 0, err
		}
		if first && c == '}' {
			break
		}
		if c != '"' {
			return 0, fmt.Errorf("bad JSON: %q where a member name should start", c)
		}
		isInputs, err := d.key()
		if err != nil {
			return 0, err
		}
		if err := d.expect(':', "after a member name"); err != nil {
			return 0, err
		}
		if isInputs {
			if seen {
				return 0, errors.New("duplicate inputs member")
			}
			seen = true
			rows, err = d.inputs()
		} else if c, err = d.token(); err == nil {
			err = d.skipValue(c, 0)
		}
		if err != nil {
			return 0, err
		}
		if c, err = d.token(); err != nil {
			return 0, err
		}
		if c == '}' {
			break
		}
		if c != ',' {
			return 0, fmt.Errorf("bad JSON: %q after a member, want ',' or '}'", c)
		}
	}
	if c, err := d.token(); err != errBodyEnded {
		if err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("bad JSON: %q after the request object", c)
	}
	if !seen {
		return 0, errors.New("no inputs")
	}
	return rows, nil
}

// inputs parses the value of the inputs member into d.data, one row of
// sampleLen floats after another.
func (d *decoder) inputs() (int, error) {
	if err := d.expect('[', "where the inputs array should start"); err != nil {
		return 0, err
	}
	for i := 0; ; i++ {
		c, err := d.token()
		if err != nil {
			return 0, err
		}
		if i == 0 && c == ']' {
			return 0, errors.New("no inputs")
		}
		if i == d.maxBatch {
			return 0, fmt.Errorf("more than %d inputs", d.maxBatch)
		}
		if c != '[' {
			return 0, fmt.Errorf("bad JSON: %q where input %d should start", c, i)
		}
		d.data = slices.Grow(d.data, d.sampleLen)
		row := d.data[len(d.data) : len(d.data)+d.sampleLen]
		if err := d.row(row, i); err != nil {
			return 0, err
		}
		d.data = d.data[:len(d.data)+d.sampleLen]
		if c, err = d.token(); err != nil {
			return 0, err
		}
		if c == ']' {
			return i + 1, nil
		}
		if c != ',' {
			return 0, fmt.Errorf("bad JSON: %q after input %d, want ',' or ']'", c, i)
		}
	}
}

// row parses the rest of input i, whose '[' is consumed, into dst.
func (d *decoder) row(dst []float32, i int) error {
	for j := 0; ; j++ {
		c, err := d.token()
		if err != nil {
			return err
		}
		if j == 0 && c == ']' {
			return fmt.Errorf("input %d has 0 floats, want %d", i, len(dst))
		}
		if j == len(dst) {
			return fmt.Errorf("input %d has more than %d floats", i, len(dst))
		}
		d.pos--
		v, err := d.number()
		if err != nil {
			return fmt.Errorf("input %d, value %d: %w", i, j, err)
		}
		if math.IsInf(float64(v), 0) {
			return fmt.Errorf("input %d, value %d: %w: number overflows float32", i, j, ErrNonFinite)
		}
		dst[j] = v
		if c, err = d.token(); err != nil {
			return err
		}
		if c == ']' {
			if j+1 != len(dst) {
				return fmt.Errorf("input %d has %d floats, want %d", i, j+1, len(dst))
			}
			return nil
		}
		if c != ',' {
			return fmt.Errorf("bad JSON: %q after value %d of input %d, want ',' or ']'", c, j, i)
		}
	}
}

var (
	errNumberSyntax = errors.New("bad JSON: malformed number")
	errNumberLong   = fmt.Errorf("bad JSON: number longer than %d bytes", maxNumberLen)
)

// number consumes one JSON number. The common case converts it where it
// lies, looking at no more than maxNumberLen+1 bytes; a number that reaches
// the end of that view may continue past it (or past a refill) and is copied
// into tok first, which is where the length limit is enforced.
func (d *decoder) number() (float32, error) {
	b := d.buf[d.pos:d.end]
	if len(b) > maxNumberLen+1 {
		b = b[:maxNumberLen+1]
	}
	v, n, ok := scanFloat32(b)
	if n < len(b) {
		if !ok {
			return 0, errNumberSyntax
		}
		d.pos += n
		return v, nil
	}
	k := 0
	for {
		c, err := d.peek()
		if err != nil {
			return 0, err
		}
		if !(c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
		if k == maxNumberLen {
			return 0, errNumberLong
		}
		d.tok[k] = c
		k++
		d.pos++
	}
	v, n, ok = scanFloat32(d.tok[:k])
	if !ok || n != k {
		return 0, errNumberSyntax
	}
	return v, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanFloat32 reads the JSON number at the start of b. n is how far it got:
// the length of the number when ok, the offset of the byte that broke the
// grammar when not — len(b) in either case if b ended first, and then the
// verdict holds only if nothing that could continue a number follows b. The
// value is strconv.ParseFloat(b[:n], 32) bit for bit, ±Inf on overflow.
//
// Fast path: with all digits held in m (at most 19 of them, m < 2⁵³) and the
// decimal exponent e within ±22, float64(m) and 10^|e| are exact, so one
// IEEE multiply or divide is the correctly rounded float64 f of the decimal.
// Rounding is monotone and every midpoint between two float32 values is
// itself a float64, so f and the decimal lie on the same side of each
// midpoint unless f is one; a non-midpoint f in the float32 normal range
// therefore rounds to the float32 the decimal rounds to. Everything else
// goes to strconv.
func scanFloat32(b []byte) (v float32, n int, ok bool) {
	i := 0
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i == len(b) {
		return 0, i, false
	}
	var m uint64 // the digits read so far; wraps, and is then unused, past 19 of them
	digits := 0  // how many, from the first nonzero one
	exp := 0
	switch c := b[i]; {
	case c == '0':
		i++
	case c >= '1' && c <= '9':
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		digits = i - start
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if m == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		first := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == start {
			return 0, i, false
		}
		digits += i - first
		exp = start - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if digits <= 19 && m < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(m)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		// f is 0 or within [1e-22, 2⁵³·1e22], inside float32's normal range;
		// what is left to rule out is the 29 bits float32 drops being
		// exactly one half.
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			v = float32(f)
			if neg {
				v = -v
			}
			return v, i, true
		}
	}
	f, _ := strconv.ParseFloat(string(b[:i]), 32) // grammar checked: the only error is range, f = ±Inf
	return float32(f), i, true
}

// key consumes a member name, whose opening quote is consumed, and reports
// whether it names the inputs member.
func (d *decoder) key() (bool, error) {
	var raw [48]byte // no spelling of "inputs" is longer: six \uXXXX escapes are 36 bytes
	n, err := d.str(raw[:])
	if err != nil || n < 0 {
		return false, err
	}
	return isInputsKey(raw[:n]), nil
}

var inputsKey = []byte("inputs")

// isInputsKey reports whether the raw (still escaped, already validated)
// member name is one encoding/json would store into a field tagged "inputs":
// it compares the unquoted name with bytes.EqualFold.
func isInputsKey(raw []byte) bool {
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, inputsKey)
	}
	var buf [48]byte
	name := buf[:0]
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			name = append(name, c)
			continue
		}
		if raw[i+1] != 'u' {
			return false // the simple escapes spell quotes, slashes and controls: no letter of "inputs"
		}
		r, _ := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32)
		name = utf8.AppendRune(name, rune(r)) // a surrogate half becomes U+FFFD, which matches nothing
		i += 5
	}
	return bytes.EqualFold(name, inputsKey)
}

// str validates and consumes the rest of a string whose opening quote is
// consumed, by encoding/json's rules: no raw control character, escapes are
// \" \\ \/ \b \f \n \r \t and \u with four hex digits. The raw bytes are
// copied into keep while they fit; it returns their count, or -1 once the
// string has outgrown keep.
func (d *decoder) str(keep []byte) (int, error) {
	n := 0
	put := func(c byte) {
		if n >= 0 && n < len(keep) {
			keep[n] = c
			n++
		} else {
			n = -1
		}
	}
	for {
		c, err := d.next()
		if err != nil {
			return 0, err
		}
		switch {
		case c == '"':
			return n, nil
		case c < ' ':
			return 0, errors.New("bad JSON: control character in a string")
		case c == '\\':
			put(c)
			if c, err = d.next(); err != nil {
				return 0, err
			}
			put(c)
			switch c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if c, err = d.next(); err != nil {
						return 0, err
					}
					if !(c >= '0' && c <= '9' || c|0x20 >= 'a' && c|0x20 <= 'f') {
						return 0, errors.New("bad JSON: bad \\u escape in a string")
					}
					put(c)
				}
			default:
				return 0, errors.New("bad JSON: bad escape in a string")
			}
		default:
			put(c)
		}
	}
}

// skipValue validates and consumes one value of a member the codec has no
// use for. c is the value's first byte, already consumed; depth counts the
// arrays and objects around it.
func (d *decoder) skipValue(c byte, depth int) error {
	switch c {
	case '"':
		_, err := d.str(nil)
		return err
	case 't':
		return d.literal("rue")
	case 'f':
		return d.literal("alse")
	case 'n':
		return d.literal("ull")
	case '[', '{':
		if depth == maxSkipDepth {
			return fmt.Errorf("bad JSON: nesting deeper than %d", maxSkipDepth)
		}
		closer := c + 2 // ']' and '}' both sit two past their opener
		c, err := d.token()
		if err != nil {
			return err
		}
		if c == closer {
			return nil
		}
		for {
			if closer == '}' {
				if c != '"' {
					return fmt.Errorf("bad JSON: %q where a member name should start", c)
				}
				if _, err := d.str(nil); err != nil {
					return err
				}
				if err := d.expect(':', "after a member name"); err != nil {
					return err
				}
				if c, err = d.token(); err != nil {
					return err
				}
			}
			if err := d.skipValue(c, depth+1); err != nil {
				return err
			}
			if c, err = d.token(); err != nil {
				return err
			}
			if c == closer {
				return nil
			}
			if c != ',' {
				return fmt.Errorf("bad JSON: %q inside a skipped value, want ',' or %q", c, closer)
			}
			if c, err = d.token(); err != nil {
				return err
			}
		}
	default:
		d.pos-- // the number starts at c
		_, err := d.number()
		return err
	}
}

// literal consumes the rest of true, false or null.
func (d *decoder) literal(rest string) error {
	for i := 0; i < len(rest); i++ {
		c, err := d.next()
		if err != nil {
			return err
		}
		if c != rest[i] {
			return errors.New("bad JSON: malformed literal")
		}
	}
	return nil
}
