package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// serveFixture wires a batcher + HTTP server over the tiny test engine.
func serveFixture(t *testing.T) (*httptest.Server, *Batcher, []int, func(i int) []float32) {
	t.Helper()
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)
	b, err := New(e, Options{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(b, 10*time.Second).Handler())
	t.Cleanup(func() { srv.Close(); b.Close() })
	return srv, b, want, func(i int) []float32 { return sample(test, i) }
}

func TestServerPredictJSON(t *testing.T) {
	srv, _, want, sampleAt := serveFixture(t)
	body, _ := json.Marshal(jsonRequest{Inputs: [][]float32{sampleAt(0), sampleAt(1)}})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr jsonResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Classes) != 2 || pr.Classes[0] != want[0] || pr.Classes[1] != want[1] {
		t.Fatalf("classes %v, want [%d %d]", pr.Classes, want[0], want[1])
	}
}

func TestServerPredictBinary(t *testing.T) {
	srv, b, want, sampleAt := serveFixture(t)
	const n = 3
	frame := make([]byte, 4+4*n*b.sampleLen)
	binary.LittleEndian.PutUint32(frame, n)
	off := 4
	for i := 0; i < n; i++ {
		for _, v := range sampleAt(i) {
			binary.LittleEndian.PutUint32(frame[off:], math.Float32bits(v))
			off += 4
		}
	}
	resp, err := http.Post(srv.URL+"/predict", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	raw := out.Bytes()
	if len(raw) != 4+4*n {
		t.Fatalf("response frame %d bytes, want %d", len(raw), 4+4*n)
	}
	if got := binary.LittleEndian.Uint32(raw); got != n {
		t.Fatalf("response count %d", got)
	}
	for i := 0; i < n; i++ {
		if got := int(binary.LittleEndian.Uint32(raw[4+4*i:])); got != want[i] {
			t.Fatalf("sample %d: got %d want %d", i, got, want[i])
		}
	}
}

// post sends one request and returns the status and the body.
func post(t *testing.T, url, ctype string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(text)
}

// binaryFrame builds a /predict frame from float32 bit patterns.
func binaryFrame(n int, bits []uint32) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(n))
	for _, u := range bits {
		frame = binary.LittleEndian.AppendUint32(frame, u)
	}
	return frame
}

func float32bits(data []float32) []uint32 {
	bits := make([]uint32, len(data))
	for i, v := range data {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

// TestServerBadRequests drives /predict (8-sample batches of 3×16×16) through
// every refusal of the codec: the status, and the words of the message that
// name what was wrong.
func TestServerBadRequests(t *testing.T) {
	srv, _, _, sampleAt := serveFixture(t)
	url, row := srv.URL, sampleAt(0)
	const maxBatch = 8
	one := jsonBody(row, 1, len(row))
	rowJSON := string(one[len(`{"inputs":[`) : len(one)-len("]}")])
	rows := func(n int) string { return strings.TrimSuffix(strings.Repeat(rowJSON+",", n), ",") }
	longRow := "[" + strings.Repeat("0,", len(row)) + "0]"
	infRow := "[" + strings.Repeat("0,", len(row)-1) + "1e39]"
	for _, tc := range []struct {
		name, ctype, body string
		status            int
		says              string
	}{
		{"bad json", "application/json", "{nope", http.StatusBadRequest, "bad JSON"},
		{"not an object", "application/json", "[[1]]", http.StatusBadRequest, "bad JSON"},
		{"empty object", "application/json", "{}", http.StatusBadRequest, "no inputs"},
		{"no inputs", "application/json", `{"inputs":[]}`, http.StatusBadRequest, "no inputs"},
		{"null inputs", "application/json", `{"inputs":null}`, http.StatusBadRequest, "bad JSON"},
		{"short row", "application/json", `{"inputs":[[1,2,3]]}`, http.StatusBadRequest, "input 0 has 3 floats"},
		{"long row", "application/json", `{"inputs":[` + rowJSON + "," + longRow + `]}`, http.StatusBadRequest, "input 1 has more than 768 floats"},
		{"null row", "application/json", `{"inputs":[null]}`, http.StatusBadRequest, "input 0"},
		{"too many rows", "application/json", `{"inputs":[` + rows(maxBatch+1) + `]}`, http.StatusBadRequest, "more than 8 inputs"},
		{"duplicate inputs", "application/json", `{"inputs":[` + rowJSON + `],"Inputs":[` + rowJSON + `]}`, http.StatusBadRequest, "duplicate inputs"},
		{"trailing garbage", "application/json", `{"inputs":[` + rowJSON + `]} x`, http.StatusBadRequest, "after the request object"},
		{"overflow to Inf", "application/json", `{"inputs":[` + infRow + `]}`, http.StatusBadRequest, "input 0, value 767: serve: non-finite input"},
		{"malformed number", "application/json", `{"inputs":[[01]]}`, http.StatusBadRequest, "bad JSON"},
		{"long number", "application/json", `{"inputs":[[0.` + strings.Repeat("1", 70) + `]]}`, http.StatusBadRequest, "input 0, value 0: bad JSON: number longer than 64 bytes"},
		{"truncated mid-number", "application/json", `{"inputs":[[0.12`, http.StatusBadRequest, "unexpected end of body"},
		{"deep unknown member", "application/json", `{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`, http.StatusBadRequest, "nesting deeper"},
		{"body too large", "application/json", `{"inputs":[` + strings.Repeat(" ", maxBatch*len(row)*24+4096), http.StatusRequestEntityTooLarge, "too large"},
		{"short frame", "application/octet-stream", "\x09", http.StatusBadRequest, "short frame header"},
		{"zero frame count", "application/octet-stream", "\x00\x00\x00\x00", http.StatusBadRequest, "frame of 0 samples"},
		{"oversized frame count", "application/octet-stream", "\xff\xff\xff\xff", http.StatusBadRequest, "frame of 4294967295 samples"},
		{"short frame body", "application/octet-stream", "\x01\x00\x00\x00abcd", http.StatusBadRequest, "short frame body"},
	} {
		status, text := post(t, url+"/predict", tc.ctype, []byte(tc.body))
		if status != tc.status || !strings.Contains(text, tc.says) {
			t.Errorf("%s: %d %q, want %d with %q", tc.name, status, strings.TrimSpace(text), tc.status, tc.says)
		}
	}
	// The same row, well formed and with members to skip around it, is served.
	ok := `{"id":"r\u00e9q","meta":{"tags":[1,2.5e3,null,true],"n":{}}, "INPUTS" : [ ` + rowJSON + ` ] ,"trace":[]}`
	if status, text := post(t, url+"/predict", "application/json", []byte(ok)); status != http.StatusOK {
		t.Errorf("request with unknown members: %d %q", status, text)
	}
	// GET on /predict is not allowed.
	resp, err := http.Get(url + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d", resp.StatusCode)
	}
}

// TestServerFailStatuses: fail maps each batcher and engine error to its
// status. A recovered engine panic is the server's fault, not the client's.
func TestServerFailStatuses(t *testing.T) {
	srv := &Server{}
	for _, tc := range []struct {
		err    error
		status int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("%w: predict panicked: boom", engine.ErrInternal), http.StatusInternalServerError},
		{errors.New("serve: request of 9 samples (want 1..8)"), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		srv.fail(rec, tc.err)
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.err.Error()) {
			t.Errorf("%v: %d %q, want %d", tc.err, rec.Code, strings.TrimSpace(rec.Body.String()), tc.status)
		}
	}
}

// TestBodyTooLargeBinary: a binary frame that runs past the body limit is a
// 413 like a JSON one. No legal frame does over HTTP (4 bytes a float against
// a limit of 24), so the limit is set by hand here.
func TestBodyTooLargeBinary(t *testing.T) {
	c := newCodec(4, 2)
	rec := httptest.NewRecorder()
	frame := binaryFrame(2, make([]uint32, 8))
	_, err := c.readFrame(http.MaxBytesReader(rec, io.NopCloser(bytes.NewReader(frame)), 20), new(reqScratch))
	if err == nil {
		t.Fatal("frame read past the body limit")
	}
	decodeError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
}

// TestNonFiniteInputs: NaN and ±Inf are refused at the door of both codecs,
// with the sample and offset named; −0 and denormals are ordinary values.
func TestNonFiniteInputs(t *testing.T) {
	srv, _, _, sampleAt := serveFixture(t)
	const at = 5 // which value of sample 1 is replaced
	clean := append(append([]float32(nil), sampleAt(0)...), sampleAt(1)...)
	sl := len(clean) / 2
	for _, tc := range []struct {
		name   string
		bits   uint32
		json   string // the value's JSON spelling; "" when it has none
		finite bool
	}{
		{"NaN", 0x7fc00000, "", false},
		{"signalling NaN", 0x7f800001, "", false},
		{"-NaN", 0xffc00000, "", false},
		{"+Inf", 0x7f800000, "1e39", false},
		{"-Inf", 0xff800000, "-3.5e38", false},
		{"-0", 0x80000000, "-0", true},
		{"smallest denormal", 0x00000001, "1e-45", true},
		{"largest denormal", 0x807fffff, "-1.1754942e-38", true},
		{"largest finite", 0x7f7fffff, "3.4028235e38", true},
	} {
		bits := float32bits(clean)
		bits[sl+at] = tc.bits
		check := func(surface string, status int, text string) {
			t.Helper()
			switch {
			case tc.finite && status != http.StatusOK:
				t.Errorf("%s %s: %d %q, want 200", surface, tc.name, status, text)
			case !tc.finite && (status != http.StatusBadRequest || !strings.Contains(text, ErrNonFinite.Error()) ||
				!strings.Contains(text, "1, value 5")):
				t.Errorf("%s %s: %d %q, want 400 naming sample 1, value 5", surface, tc.name, status, strings.TrimSpace(text))
			}
		}
		status, text := post(t, srv.URL+"/predict", "application/octet-stream", binaryFrame(2, bits))
		check("binary /predict", status, text)
		if tc.json != "" {
			// Spell the batch with a marker at the offset, then put the
			// value's JSON spelling in its place.
			marked := append([]float32(nil), clean...)
			marked[sl+at] = 12345.678
			body := bytes.Replace(jsonBody(marked, 2, sl), []byte("12345.678"), []byte(tc.json), 1)
			status, text = post(t, srv.URL+"/predict", "application/json", body)
			check("JSON /predict", status, text)
		}
	}
	// NaN has no JSON spelling: it is a grammar error, still a 400.
	if status, _ := post(t, srv.URL+"/predict", "application/json", []byte(`{"inputs":[[NaN]]}`)); status != http.StatusBadRequest {
		t.Errorf("JSON NaN: %d, want 400", status)
	}
}

// TestCodecHammer is the race gate of the shared request scratch: JSON and
// binary requests, good and refused, from many goroutines at once, each checking it got its own samples' labels back. Some clients give
// up early, which is the path that must not recycle a scratch the batcher
// may still be reading.
func TestCodecHammer(t *testing.T) {
	srv, _, want, sampleAt := serveFixture(t)
	const workers, rounds = 6, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r) % (len(want) - 1)
				data := append(append([]float32(nil), sampleAt(i)...), sampleAt(i+1)...)
				switch r % 3 {
				case 0:
					status, text := post(t, srv.URL+"/predict", "application/json", jsonBody(data, 2, len(data)/2))
					var resp jsonResponse
					if err := json.Unmarshal([]byte(text), &resp); status != http.StatusOK || err != nil ||
						len(resp.Classes) != 2 || resp.Classes[0] != want[i] || resp.Classes[1] != want[i+1] {
						t.Errorf("JSON samples %d,%d: %d %q (%v), want %v", i, i+1, status, text, err, want[i:i+2])
					}
				case 1:
					status, text := post(t, srv.URL+"/predict", "application/octet-stream", binaryFrame(2, float32bits(data)))
					if wantFrame := string(appendLabelFrame(nil, want[i:i+2])); status != http.StatusOK || text != wantFrame {
						t.Errorf("binary samples %d,%d: %d %q, want %q", i, i+1, status, text, wantFrame)
					}
				case 2:
					// A refusal, then clients that hang up at various points.
					if status, _ := post(t, srv.URL+"/predict", "application/json", []byte(`{"inputs":[[1,2,3]]}`)); status != http.StatusBadRequest {
						t.Errorf("short row: %d, want 400", status)
					}
					body := jsonBody(data, 2, len(data)/2)
					for _, patience := range []time.Duration{200, 500, 900, 1400} {
						ctx, cancel := context.WithTimeout(context.Background(), patience*time.Microsecond)
						req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/predict", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
						} else if resp, err := http.DefaultClient.Do(req); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
						cancel()
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestServerHealthAndMetrics(t *testing.T) {
	srv, b, _, sampleAt := serveFixture(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d (%v)", resp.StatusCode, err)
	}
	wantHealth := fmt.Sprintf(`{"status":"ok","model_version":"%016x","classes":4,"sample_floats":768,"max_batch":8}`+"\n", b.Engine().ModelVersion())
	if string(health) != wantHealth {
		t.Fatalf("healthz body %q, want %q", health, wantHealth)
	}

	// Serve one request so the metrics have something to show.
	body, _ := json.Marshal(jsonRequest{Inputs: [][]float32{sampleAt(0)}})
	if pr, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		pr.Body.Close()
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"prev_version", "shard_lo", "shard_hi", "full_d", "packed", "partials", "partial_samples", "partial_errors"} {
		if strings.Contains(string(metrics)+string(health), `"`+gone+`":`) {
			t.Errorf("/healthz or /metrics still reports %q", gone)
		}
	}
	var m metricsResponse
	if err := json.Unmarshal(metrics, &m); err != nil {
		t.Fatal(err)
	}
	if m.Served < 1 || m.Batches < 1 || m.QPS <= 0 {
		t.Fatalf("metrics show no traffic: %+v", m.Snapshot)
	}
	if m.KernelISA != tensor.KernelISA() || m.KernelISA == "" {
		t.Fatalf("kernel_isa %q, want %q", m.KernelISA, tensor.KernelISA())
	}
	if m.Engine.D != b.Engine().Dim() || m.Engine.Classes != 4 || m.Engine.SampleLen != 3*16*16 ||
		m.Engine.ModelVersion != fmt.Sprintf("%016x", b.Engine().ModelVersion()) {
		t.Fatalf("engine facts wrong: %+v", m.Engine)
	}
	if m.Engine.MaxBatch != 8 || m.Engine.QueueCap != 64 {
		t.Fatalf("batcher facts wrong: %+v", m.Engine)
	}
	if len(m.Engine.StageTimes) != len(m.Engine.Stages) {
		t.Fatalf("stage timings %d rows for %d stages: %+v", len(m.Engine.StageTimes),
			len(m.Engine.Stages), m.Engine.StageTimes)
	}
	for _, st := range m.Engine.StageTimes {
		if st.Name == "" || st.Seconds <= 0 {
			t.Fatalf("bad stage timing row: %+v", st)
		}
	}
	if len(m.Engine.StageTimes[0].Sub) == 0 {
		t.Fatalf("extract stage timing has no sub-steps: %+v", m.Engine.StageTimes[0])
	}

	// After Close, health flips to draining.
	b.Close()
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: status %d", hresp.StatusCode)
	}
}
